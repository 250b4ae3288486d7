# bench_harness_smoke (ctest -L bench): every workload end to end and
# traced at --smoke size with every check on, then `compare` on two
# canned record files whose verdicts are known.
#   cmake -DWSS_BENCH=... -DTESTDATA=... -DBOUNDS=... -DWORKDIR=... -P smoke.cmake
file(MAKE_DIRECTORY ${WORKDIR})

foreach(mode e2e trace)
  set(extra)
  if(mode STREQUAL "trace")
    set(extra --trace ${WORKDIR}/spans.jsonl)
  endif()
  execute_process(
    COMMAND ${WSS_BENCH} --workload all --seed 1 --smoke --workdir ${WORKDIR}
            --out ${WORKDIR}/records.jsonl ${extra}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "wss_bench --smoke (${mode}) exited ${rc}")
  endif()
endforeach()

execute_process(
  COMMAND ${WSS_BENCH} compare ${TESTDATA}/base.jsonl ${TESTDATA}/head.jsonl
          --bounds ${BOUNDS}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "wss_bench compare exited ${rc}")
endif()
foreach(row
    "failed_share[^\n]*unchanged"
    "lines_per_s [^\n]*10/10[^\n]*improved"
    "lines_per_s_1t[^\n]*unresolved"
    "peak_rss_mb[^\n]*unchanged"
    "setup_s[^\n]*regressed")
  if(NOT out MATCHES "${row}")
    message(FATAL_ERROR "compare output lacks a row matching '${row}'")
  endif()
endforeach()
