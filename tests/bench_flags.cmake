# ctest helper (see tests/CMakeLists.txt): every bench honours the uniform
# flags rather than silently ignoring them.
#   1. a bench run with --trace-out and --heartbeat-out exits 0 and writes
#      both files;
#   2. --seed reaches the trials: two base seeds print different tables;
#   3. --repeats 0 exits 2 naming the flag instead of running the default.
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
