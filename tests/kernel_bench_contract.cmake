# Kernel-bench contract: a fresh `micro_kernels --report` must pass
# `report_check --bench` against the committed BENCH_streak.json.
#
#   cmake -DMICRO_KERNELS=<path> -DREPORT_CHECK=<path>
#         -DCOMMITTED=<BENCH_streak.json> -DWORK_DIR=<scratch dir>
#         -P kernel_bench_contract.cmake
#
# The fresh report goes to WORK_DIR (STREAK_BENCH_JSON), never over the
# committed file.
file(MAKE_DIRECTORY "${WORK_DIR}")
set(fresh "${WORK_DIR}/kernel_bench_fresh.json")
file(REMOVE "${fresh}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "STREAK_BENCH_JSON=${fresh}"
          "${MICRO_KERNELS}" --report
  TIMEOUT 120 RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "micro_kernels --report: exit ${rc}\n${out}${err}")
endif()

execute_process(
  COMMAND "${REPORT_CHECK}" --bench "${fresh}" "${COMMITTED}"
  TIMEOUT 30 RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report_check --bench: exit ${rc}\n${out}${err}")
endif()
