# Copies a recorded baseline with one embedded work counter moved by DELTA
# and runs the two-file regression gate (tools/check_bench_regression.py)
# on the pair; fails when the gate rejects the copy.
#
#   cmake -DPYTHON=<python3> -DGATE=<check_bench_regression.py>
#         -DBASELINE=<BENCH_*.json> -DCOUNTER=<name> -DDELTA=<n>
#         -DWORK_DIR=<dir> -P bench_counter_gate.cmake
#
# With DELTA=0 the copy differs only by its string(JSON) round trip and
# must pass; any other DELTA must fail (a WILL_FAIL ctest), so the gate
# compares every counter exactly.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${BASELINE}" doc)
string(JSON value GET "${doc}" metrics counters "${COUNTER}")
math(EXPR value "${value} + ${DELTA}")
string(JSON doc SET "${doc}" metrics counters "${COUNTER}" "${value}")
file(WRITE "${WORK_DIR}/copy.json" "${doc}")
execute_process(
  COMMAND "${PYTHON}" "${GATE}" "${BASELINE}" "${WORK_DIR}/copy.json"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "the regression gate rejected the copy (exit ${status})")
endif()
