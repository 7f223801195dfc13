# CLI argument contract of `streak generate`, `streak route` and
# `streak eco`: a numeric option value that does not parse or is out of
# range is a usage error — exit 2 with a message — never exit 1 and
# never a silent 0 from a failed number parse (`--backbones=abc` used to
# route with zero backbones and exit 0). Each probe runs under a 5 s
# timeout. The design and checkpoint paths do not exist, so a probe that
# slipped past the option parser would exit 3 instead of 2.
#
#   cmake -DSTREAK=<path to streak> -DWORK_DIR=<scratch dir>
#         -P cli_route_contract.cmake
#
# Large --threads= values are deliberately not probed: one that parsed
# would start that many threads.
file(MAKE_DIRECTORY "${WORK_DIR}")
set(missing "${WORK_DIR}/cli_route_probe_missing")
file(REMOVE "${missing}")

function(expect_usage_error label)
  execute_process(COMMAND "${STREAK}" ${ARGN} TIMEOUT 5
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${label}: exit ${rc}, want 2\n${err}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "${label}: exit 2 without a message")
  endif()
endfunction()

foreach(suite abc 3x 0 8 "")
  expect_usage_error("generate '${suite}'" generate "${suite}" "${missing}")
endforeach()
foreach(probe --backbones=abc --backbones=0 --backbones= --threads=x
              --threads=-1 --threads=2x --threads= --ilp-limit=abc
              --ilp-limit=-1 --deadline= --deadline=5s --deadline=nan
              --deadline=inf)
  expect_usage_error("route ${probe}" route "${missing}" "${probe}")
endforeach()
foreach(probe --threads=x --threads=-3 --threads= --cold --cold-check)
  expect_usage_error("eco ${probe}" eco "${missing}" "--deltas=${missing}"
                     "${probe}")
endforeach()
if(EXISTS "${missing}")
  message(FATAL_ERROR "a usage error still wrote ${missing}")
endif()
