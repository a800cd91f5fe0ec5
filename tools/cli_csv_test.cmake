# Runs tracenet_cli's default serial path and its --jobs 1 runtime path on the
# internet2 and geant demos and fails unless the two write byte-identical
# subnet CSVs, one row per prefix, and the same stdout apart from the
# runtime's closing "campaign:" line.
#
#   cmake -DCLI=path/to/tracenet_cli -DWORK=work/dir -P cli_csv_test.cmake
file(MAKE_DIRECTORY "${WORK}")
foreach(demo internet2 geant)
  foreach(path serial jobs1)
    set(extra)
    if(path STREQUAL "jobs1")
      set(extra --jobs 1)
    endif()
    execute_process(
      COMMAND "${CLI}" --demo ${demo} ${extra} --csv "${WORK}/${demo}_${path}.csv"
      RESULT_VARIABLE status
      OUTPUT_VARIABLE ${path}_stdout
      ERROR_QUIET)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "tracenet_cli --demo ${demo} ${extra} exited with ${status}")
    endif()
    file(READ "${WORK}/${demo}_${path}.csv" ${path}_csv)
  endforeach()
  if(serial_csv STREQUAL "")
    message(FATAL_ERROR "tracenet_cli --demo ${demo} wrote an empty CSV")
  endif()
  if(NOT serial_csv STREQUAL jobs1_csv)
    message(FATAL_ERROR "--demo ${demo}: the default path's CSV differs from --jobs 1's "
                        "(${WORK}/${demo}_serial.csv vs ${WORK}/${demo}_jobs1.csv)")
  endif()
  string(REGEX REPLACE "(^|\n)campaign: [^\n]*\n" "\\1" jobs1_stdout "${jobs1_stdout}")
  if(NOT serial_stdout STREQUAL jobs1_stdout)
    message(FATAL_ERROR "--demo ${demo}: the default path's stdout differs from --jobs 1's "
                        "beyond the campaign: line")
  endif()
endforeach()
