# Runs tracenet_cli on the simulated internet twice, with and without a
# routing-churn directive, and fails unless the two subnet CSVs differ: every
# CLI path must stamp each target's churn epoch like the campaign drivers do.
# MODE selects the path: empty for the default serial path, --multipath for
# the multipath one.
#
#   cmake -DCLI=path/to/tracenet_cli -DWORK=work/dir [-DMODE=--multipath]
#         -P cli_churn_test.cmake
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/calm.spec" "seed 7\n")
file(WRITE "${WORK}/churn.spec" "seed 7\nchurn epoch=90000 fraction=0.5\n")
foreach(run calm churn)
  execute_process(
    COMMAND "${CLI}" --demo internet ${MODE} --fault-spec "${WORK}/${run}.spec"
            --csv "${WORK}/${run}.csv"
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "tracenet_cli ${MODE} (${run} spec) exited with ${status}")
  endif()
  file(READ "${WORK}/${run}.csv" ${run})
endforeach()
if(calm STREQUAL "")
  message(FATAL_ERROR "tracenet_cli ${MODE} wrote an empty CSV")
endif()
if(calm STREQUAL churn)
  message(FATAL_ERROR "the churn directive left the CSV of tracenet_cli ${MODE} unchanged")
endif()
