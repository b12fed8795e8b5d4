# ctest helper (see tests/CMakeLists.txt): the tools reject a flag they
# cannot honour.  A value that is not a number and a flag the tool does not
# know exit 2 naming the flag, and a positional count K that is not a
# number exits 2 naming K, before the input file is read (the file given
# here does not exist).
set(missing ${OUT_DIR}/tool_flags_missing.jsonl)
foreach(case
    "${TOP}\;${missing}\;--once\;--interval-ms\;abc|--interval-ms takes a non-negative integer, not 'abc'"
    "${TOP}\;${missing}\;--once\;--max-seconds\;xyz|--max-seconds takes a number, not 'xyz'"
    "${TOP}\;${missing}\;--once\;--bogus\;3|unknown flag --bogus"
    "${TRACE}\;summary\;${missing}\;--last-rounds\;abc|--last-rounds takes a non-negative integer, not 'abc'"
    "${TRACE}\;top-tiles\;${missing}\;abc|K takes a non-negative integer, not 'abc'")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 case_command)
  list(GET parts 1 case_message)
  execute_process(
    COMMAND ${case_command}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${case_message}" OR NOT out STREQUAL "")
    message(FATAL_ERROR "${case_command}: rc=${rc}, stderr: ${err}")
  endif()
endforeach()
