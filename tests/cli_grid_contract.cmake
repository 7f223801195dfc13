# CLI exit-code contract for malformed GRID headers: `streak info` must
# exit 3 (invalid-input) on each probe, never 1 or a crash.
#
#   cmake -DSTREAK=<path to streak> -DWORK_DIR=<scratch dir>
#         -P cli_grid_contract.cmake
set(probes
    "-5 4 2 16"
    "3 1 2 16"
    "4 4 1 16"
    "100000 100000 6 16"
    "2000000000 2 2 1"
    "4 4 2 -1")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(design "${WORK_DIR}/cli_grid_probe.streak")
foreach(probe IN LISTS probes)
  file(WRITE "${design}" "STREAK 1\nGRID ${probe}\n")
  execute_process(COMMAND "${STREAK}" info "${design}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR "GRID ${probe}: exit ${rc}, want 3\n${err}")
  endif()
endforeach()
