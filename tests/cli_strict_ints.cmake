# Strict integer flags, run as a CTest script: a negative or unparsable
# value is a usage error (exit 2), never a value wrapped into a huge
# size_t. A wrapped --ring-capacity makes the ring's power-of-two rounding
# spin, so every run is bounded by a timeout and a hang fails the test.
#
# Expects -DBW_GENERATE, -DBW_MONITOR (tool paths) and -DWORK_DIR
# (scratch directory, wiped on entry).

foreach(var BW_GENERATE BW_MONITOR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_strict_ints: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${BW_GENERATE}" --out tiny.bwds --scale 0.005
                        --seed 7 --days 2
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cli_strict_ints: bw-generate exited ${rc}")
endif()

foreach(flag "--ring-capacity;-1" "--max-reorder;-1" "--rolling-topk;-1"
             "--rolling-approx;-1" "--reconnect-budget;-1"
             "--ring-capacity;64k" "--allowance;-5" "--report-every;x")
  execute_process(COMMAND "${BW_MONITOR}" tiny.bwds --replay --lockstep
                          --quiet ${flag}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  TIMEOUT 10
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    list(JOIN flag " " shown)
    message(FATAL_ERROR "cli_strict_ints: bw-monitor ${shown} gave '${rc}', "
                        "expected exit 2\nstderr:\n${err}")
  endif()
endforeach()
