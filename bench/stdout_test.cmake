# Runs one bench and fails unless its stdout equals the committed expected
# file byte for byte; on a mismatch the fresh output is left in ACTUAL.
#
#   cmake -DBENCH=path/to/bench -DEXPECTED=expected/name.txt
#         -DACTUAL=work/name.txt -P stdout_test.cmake
execute_process(
  COMMAND "${BENCH}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE actual
  ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED}; "
                      "it is in ${ACTUAL}")
endif()
