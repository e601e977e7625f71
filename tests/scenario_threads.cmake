# Runs `cdsf scenario` at the default thread count and at --threads 1 and 3,
# each in its own directory under WORK_DIR, and fails unless every run prints
# the same text, writes the same --report-json once its wall-clock part (the
# metrics snapshot) is removed, and writes the same postmortem files.
#
#   cmake -DCDSF=<path to cdsf> -DWORK_DIR=<dir> -P scenario_threads.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(threads default 1 3)
  set(dir "${WORK_DIR}/threads_${threads}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  set(flag)
  if(NOT threads STREQUAL "default")
    set(flag --threads ${threads})
  endif()
  execute_process(
    COMMAND "${CDSF}" scenario --replications 5 ${flag} --report-json report.json
    WORKING_DIRECTORY "${dir}"
    OUTPUT_VARIABLE printout
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "cdsf scenario (threads ${threads}) exited with ${status}")
  endif()

  file(READ "${dir}/report.json" report)
  string(JSON report REMOVE "${report}" metrics)

  file(GLOB names RELATIVE "${dir}" "${dir}/flight_postmortem_*.json")
  list(SORT names)
  set(postmortems "${names}")
  foreach(name IN LISTS names)
    file(READ "${dir}/${name}" contents)
    string(APPEND postmortems "\n${contents}")
  endforeach()

  if(threads STREQUAL "default")
    set(want_printout "${printout}")
    set(want_report "${report}")
    set(want_postmortems "${postmortems}")
    continue()
  endif()
  foreach(part printout report postmortems)
    if(NOT "${${part}}" STREQUAL "${want_${part}}")
      message(FATAL_ERROR "cdsf scenario --threads ${threads}: ${part} not as at the default")
    endif()
  endforeach()
endforeach()
