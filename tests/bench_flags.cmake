# ctest helper (see tests/CMakeLists.txt): every bench honours the uniform
# flags rather than silently ignoring them.
#   1. a bench run with --trace-out and --heartbeat-out exits 0 and writes
#      both files;
#   2. --seed reaches the trials: two base seeds print different tables;
#   3. --repeats 0 exits 2 naming the flag instead of running the default,
#      on all 18 figure and ablation benches;
#   4. an unknown flag (--bogus 1) exits 2 naming it on every one of them,
#      before any sweep runs;
#   5. a positional argument, a bad number (--jobs abc, --ttl abc,
#      --sides 4,abc) and a flag without its value (a bare --seed) exit 2
#      with a message, naming the flag where there is one, before any
#      sweep runs.
file(REMOVE ${OUT_DIR}/bench_flags_trace.jsonl ${OUT_DIR}/bench_flags_heartbeat.jsonl)
execute_process(
  COMMAND ${SCALABILITY} --sides 4 --repeats 1
          --trace-out ${OUT_DIR}/bench_flags_trace.jsonl
          --heartbeat-out ${OUT_DIR}/bench_flags_heartbeat.jsonl
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ablation_scalability with telemetry exports failed (rc=${rc})")
endif()
foreach(artifact bench_flags_trace.jsonl bench_flags_heartbeat.jsonl)
  if(NOT EXISTS ${OUT_DIR}/${artifact})
    message(FATAL_ERROR "ablation_scalability did not write ${artifact}")
  endif()
endforeach()

foreach(seed 0 7)
  execute_process(
    COMMAND ${TTL} --repeats 2 --csv --seed ${seed}
    OUTPUT_VARIABLE table_${seed}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ablation_ttl --seed ${seed} failed (rc=${rc})")
  endif()
endforeach()
if(table_0 STREQUAL table_7)
  message(FATAL_ERROR "ablation_ttl printed the same table at --seed 0 and --seed 7")
endif()

execute_process(
  COMMAND ${TTL} --repeats 0
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--repeats must be at least 1")
  message(FATAL_ERROR "ablation_ttl --repeats 0: rc=${rc}, stderr: ${err}")
endif()

foreach(case
    "5\;--repeats\;1|unexpected argument '5'"
    "--jobs\;abc|--jobs takes a non-negative integer, not 'abc'"
    "--seed|--seed needs a value")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 case_args)
  list(GET parts 1 case_message)
  execute_process(
    COMMAND ${TTL} ${case_args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${case_message}" OR NOT out STREQUAL "")
    message(FATAL_ERROR "ablation_ttl ${case_args}: rc=${rc}, stderr: ${err}")
  endif()
endforeach()
foreach(case
    "--ttl\;abc|--ttl takes a non-negative integer, not 'abc'"
    "--sides\;4,abc|--sides takes mesh sides of at least 2, not 'abc'")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 case_args)
  list(GET parts 1 case_message)
  execute_process(
    COMMAND ${SCALABILITY} ${case_args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${case_message}" OR NOT out STREQUAL "")
    message(FATAL_ERROR "ablation_scalability ${case_args}: rc=${rc}, stderr: ${err}")
  endif()
endforeach()

set(benches
  fig3_1_rumor_spreading fig4_4_latency_energy fig4_5_fault_surface
  fig4_6_bus_comparison fig4_8_mp3_latency fig4_9_mp3_energy
  fig4_10_mp3_failures fig4_11_mp3_bitrate fig5_3_diversity
  ablation_xy_vs_gossip ablation_ttl ablation_fec_vs_crc
  ablation_reliable_transport ablation_islands ablation_scalability
  ablation_wormhole_vs_gossip ablation_broadcast ablation_flow_control)
list(LENGTH benches n_benches)
if(NOT n_benches EQUAL 18)
  message(FATAL_ERROR "expected 18 figure and ablation benches, listed ${n_benches}")
endif()
foreach(bench ${benches})
  execute_process(
    COMMAND ${BENCH_DIR}/${bench} --repeats 0
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--repeats must be at least 1")
    message(FATAL_ERROR "${bench} --repeats 0: rc=${rc}, stderr: ${err}")
  endif()
  execute_process(
    COMMAND ${BENCH_DIR}/${bench} --bogus 1
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --bogus" OR NOT out STREQUAL "")
    message(FATAL_ERROR "${bench} --bogus 1: rc=${rc}, stderr: ${err}")
  endif()
endforeach()
