# CLI exit-code contract for malformed designs: `streak info` must exit 3
# (invalid-input) on each probe, never 1, a crash or a hang.
#
#   cmake -DSTREAK=<path to streak> -DWORK_DIR=<scratch dir>
#         -P cli_grid_contract.cmake
#
# GRID header probes: the whole design is "GRID <probe>".
set(grid_probes
    "-5 4 2 16"
    "3 1 2 16"
    "4 4 1 16"
    "100000 100000 6 16"
    "2000000000 2 2 1"
    "4 4 2 -1")
# Record probes on a valid 8 x 8 grid: rectangles outside the grid, a
# negative capacity, pins outside the grid, and a design that parses but
# fails validateDesign (an empty group).
set(record_probes
    "BLOCKAGE 0 0 2000000000 2000000000 0 1"
    "BLOCKAGE 0 0 3 3 0 -7"
    "BLOCKAGE 0 0 3 3 2 1"
    "VIACAP -7"
    "VIACAP 2\nVIABLOCKAGE -2000000000 0 2000000000 3 1"
    "GROUP g 1\nBIT b 2 0\nPIN 1 1\nPIN 50 5"
    "GROUP g 0")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(design "${WORK_DIR}/cli_grid_probe.streak")

function(expect_invalid_input text label)
  file(WRITE "${design}" "STREAK 1\n${text}\n")
  execute_process(COMMAND "${STREAK}" info "${design}" TIMEOUT 5
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR "${label}: exit ${rc}, want 3\n${err}")
  endif()
endfunction()

foreach(probe IN LISTS grid_probes)
  expect_invalid_input("GRID ${probe}" "GRID ${probe}")
endforeach()
foreach(probe IN LISTS record_probes)
  expect_invalid_input("GRID 8 8 2 4\n${probe}" "${probe}")
endforeach()
