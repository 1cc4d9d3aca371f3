# End-to-end fault drill, run as a CTest script (label: fault):
#   1. bw-generate a small corpus and export it to CSV
#   2. bw-faultgen applies the default fault mix
#   3. bw-analyze --strict must reject the corrupted corpus (exit 3)
#   4. bw-analyze --skip-bad-rows must survive it (exit 0)
#   5. every byte-level container fault (truncate/bitflip/torn/swap) must be
#      rejected with a data error, never ingested
#   6. the stage watchdog: a planted hang times out into a degraded-but-
#      complete analysis (exit 0); an over-budget generation exits 3
#
#   7. bw-monitor honours the same strictness contract on the same corpora:
#      strict rejects the corrupted CSV (exit 3), --skip-bad-rows survives
#      it, and the clean corpus replays strictly (exit 0)
#   8. an output bw-monitor or bw-feed cannot write fails the run with a
#      data error (exit 3), and a failed run leaves none of its outputs
#      and no temp file; bw-monitor fails before it replays anything
#
# Expects -DBW_GENERATE, -DBW_FAULTGEN, -DBW_ANALYZE, -DBW_MONITOR,
# -DBW_FEED (tool paths) and -DWORK_DIR (scratch directory, wiped on
# entry).

foreach(var BW_GENERATE BW_FAULTGEN BW_ANALYZE BW_MONITOR BW_FEED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "fault_e2e: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step expect_rc)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR "fault_e2e: '${ARGN}' exited ${rc}, expected "
                        "${expect_rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

run_step(0 "${BW_GENERATE}" --out corpus.bwds --scale 0.05 --seed 7
           --days 21 --csv clean_csv)
run_step(0 "${BW_FAULTGEN}" --in clean_csv --out faulty_csv --seed 7)

# A corrupted corpus must fail a strict load with a data error...
run_step(3 "${BW_ANALYZE}" faulty_csv --strict)
# ...and must survive a tolerant load, degraded but complete.
run_step(0 "${BW_ANALYZE}" faulty_csv --skip-bad-rows --markdown faulty.md)

# The clean CSV corpus round-trips strictly.
run_step(0 "${BW_ANALYZE}" clean_csv --strict)

# bw-monitor shares the loader and the contract: same corpus, same flags,
# same exit codes — strict rejects, tolerant degrades, clean passes.
run_step(3 "${BW_MONITOR}" faulty_csv --strict --quiet)
run_step(0 "${BW_MONITOR}" faulty_csv --skip-bad-rows --quiet)
run_step(0 "${BW_MONITOR}" clean_csv --strict --quiet --replay --lockstep)

# --- Byte-level container faults -------------------------------------------
# The checksummed container must turn each corruption into a load error
# (exit 3). The clean container itself must still analyze.
run_step(0 "${BW_ANALYZE}" corpus.bwds)
foreach(kind truncate bitflip torn swap)
  run_step(0 "${BW_FAULTGEN}" --in corpus.bwds --out "bad_${kind}.bwds"
             --binary ${kind} --seed 7)
  run_step(3 "${BW_ANALYZE}" "bad_${kind}.bwds")
endforeach()

# --- Stage watchdog --------------------------------------------------------
# A wedged analysis stage times out and degrades; the run still completes
# with a report (exit 0).
run_step(0 "${BW_ANALYZE}" corpus.bwds --stage-timeout-s 1
           --inject-hang filtering --markdown hung.md)
# A generation run that exceeds its budget is cancelled with a data error:
# 1 ms of budget cannot cover a 21-day corpus.
run_step(3 "${BW_GENERATE}" --out never.bwds --scale 0.05 --seed 7
           --days 21 --stage-timeout-s 0.001)

# --- Unwritable outputs ----------------------------------------------------
# Every output streams into FILE.tmp and is renamed at the end. An output
# under a missing directory is a data error, and the run that fails leaves
# no other output behind either: not the file, not its temp.
function(expect_no_output)
  foreach(name ${ARGN})
    if(EXISTS "${WORK_DIR}/${name}" OR EXISTS "${WORK_DIR}/${name}.tmp")
      message(FATAL_ERROR "fault_e2e: a failed run left ${name} or its temp")
    endif()
  endforeach()
endfunction()
foreach(flag --alerts-out --rolling-out --shed-log)
  run_step(3 "${BW_MONITOR}" corpus.bwds --quiet --replay --lockstep
             ${flag} no_such_dir/out)
endforeach()
run_step(3 "${BW_MONITOR}" corpus.bwds --quiet --replay --lockstep
           --alerts-out alerts.log --rolling-out no_such_dir/rolling.jsonl)
expect_no_output(alerts.log)
# An unwritable --rolling-out fails before the replay: no alert line (the
# console prints them without --quiet) and no Streaming: summary.
run_step(3 "${BW_MONITOR}" corpus.bwds --replay --lockstep
           --rolling-out no_such_dir/rolling.jsonl)
if(step_out MATCHES "Streaming:" OR step_out MATCHES "\n\\[")
  message(FATAL_ERROR "fault_e2e: bw-monitor replayed before failing on an "
                      "unwritable --rolling-out:\n${step_out}")
endif()
run_step(3 "${BW_FEED}" corpus.bwds --out no_such_dir/feed.bwsf)
run_step(3 "${BW_FEED}" corpus.bwds --out feed.bwsf --chaos corrupt:10
           --chaos-log no_such_dir/chaos.log)
expect_no_output(feed.bwsf)
