// The SNOC_PROF wall-clock scopes live in common/prof.hpp, below every
// simulator layer, so the fault injector and the packet codec can carry
// scopes too.  This header keeps the telemetry-layer include path working.
#pragma once

#include "common/prof.hpp"
