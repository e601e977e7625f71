# Writes the paper scenario with its case4 copied as a fifth case, runs
# `cdsf dynamic --file` at --case 4 and at --case 5, and fails unless both
# exit 0 and write the same --report-json once its metrics snapshot is
# removed: with --file, --case indexes the scenario's own cases, not the
# paper's four.
#
#   cmake -DCDSF=<path to cdsf> -DWORK_DIR=<dir> -P dynamic_file_case.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${CDSF}" template --out five_cases.ini
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "cdsf template exited with ${status}")
endif()
file(READ "${WORK_DIR}/five_cases.ini" scenario)
string(REGEX MATCH "\\[availability case4\\][^[]*" case4 "${scenario}")
if(case4 STREQUAL "")
  message(FATAL_ERROR "the template has no [availability case4] section")
endif()
string(REPLACE "case4" "case5" case5 "${case4}")
file(APPEND "${WORK_DIR}/five_cases.ini" "\n${case5}")

foreach(k 4 5)
  execute_process(
    COMMAND "${CDSF}" dynamic --file five_cases.ini --case ${k} --report-json case${k}.json
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "cdsf dynamic --case ${k} exited with ${status}: ${errors}")
  endif()
  file(READ "${WORK_DIR}/case${k}.json" report)
  string(JSON report_${k} REMOVE "${report}" metrics)
endforeach()
if(NOT report_4 STREQUAL report_5)
  message(FATAL_ERROR "cdsf dynamic --case 5 did not run the scenario's fifth case")
endif()
