# Runs tracenet_cli once with each option a mode rejects and fails unless
# every run stops with the usage error's exit status 2 and an error line that
# names the option. BASE holds the arguments every run starts with (the mode);
# OPTIONS lists the rejected options, separated by '|', each with its value.
# Relative paths land in WORK. No run names a target, so a --live run that got
# past the check would still stop before sending a probe.
#
#   cmake -DCLI=path/to/tracenet_cli -DWORK=work/dir
#         "-DBASE=--demo internet2 --multipath"
#         "-DOPTIONS=--retries 3|--window 16|--dot map.dot"
#         -P cli_multipath_test.cmake
file(MAKE_DIRECTORY "${WORK}")
separate_arguments(base UNIX_COMMAND "${BASE}")
string(REPLACE "|" ";" options "${OPTIONS}")
foreach(option IN LISTS options)
  separate_arguments(argv UNIX_COMMAND "${option}")
  list(GET argv 0 name)
  execute_process(
    COMMAND "${CLI}" ${base} ${argv}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE error)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "tracenet_cli ${BASE} ${option} exited with ${status}, want 2")
  endif()
  string(FIND "${error}" "${name}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "tracenet_cli ${BASE} ${option} stopped without naming ${name}:\n${error}")
  endif()
endforeach()
