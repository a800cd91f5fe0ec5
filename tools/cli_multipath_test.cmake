# Runs tracenet_cli --multipath with each option the multipath session would
# ignore (--retries, --window, --dot) and fails unless every run stops with
# the usage error's exit status 2.
#
#   cmake -DCLI=path/to/tracenet_cli -DWORK=work/dir -P cli_multipath_test.cmake
file(MAKE_DIRECTORY "${WORK}")
foreach(option "--retries;3" "--window;16" "--dot;${WORK}/map.dot")
  execute_process(
    COMMAND "${CLI}" --demo internet2 --multipath ${option}
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT status EQUAL 2)
    list(JOIN option " " shown)
    message(FATAL_ERROR "tracenet_cli --multipath ${shown} exited with ${status}, want 2")
  endif()
endforeach()
