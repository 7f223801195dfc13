# CLI argument contract of `streak campaign`: a malformed option value
# is a usage error — exit 2 with a message — like an unknown option,
# never exit 1 and never a silent 0 from a failed number parse. Each
# probe runs under a 5 s timeout (a probe that slips through would start
# a sweep).
#
#   cmake -DSTREAK=<path to streak> -DWORK_DIR=<scratch dir>
#         -P cli_campaign_contract.cmake
#
# Large --threads= values are deliberately not probed: one that parsed
# would start that many threads.
file(MAKE_DIRECTORY "${WORK_DIR}")
set(store "${WORK_DIR}/cli_campaign_probe.jsonl")
file(REMOVE "${store}")

function(expect_usage_error label)
  execute_process(COMMAND "${STREAK}" campaign ${ARGN} TIMEOUT 5
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${label}: exit ${rc}, want 2\n${err}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "${label}: exit 2 without a message")
  endif()
endfunction()

foreach(probe --suites=9 --suites=0 --suites=abc --suites=1,x --suites=
              --configs=bogus --configs=pd,nope --scale-counter=x:abc
              --scale-counter=x: --scale-counter=x:-2 --scale-counter=x:0
              --scale-counter=ilp/lp.pivots:1e300 --no-such-option)
  expect_usage_error("run ${probe}" run "--store=${store}" "${probe}")
endforeach()
foreach(probe --counter-pct=abc --counter-pct= --wall-pct=50
              --bench=BENCH_streak.json)
  expect_usage_error("diff ${probe}" diff "${store}" "--baseline=${store}"
                     "${probe}")
endforeach()
if(EXISTS "${store}")
  message(FATAL_ERROR "a usage error still appended to ${store}")
endif()
