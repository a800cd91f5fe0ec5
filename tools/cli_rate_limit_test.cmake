# Runs tracenet_cli --demo internet through the campaign runtime and fails
# unless its metrics count rate-limited probes: the demo must install the
# §4.2 ICMP rate-limit plan that the benches and examples install.
#
#   cmake -DCLI=path/to/tracenet_cli -P cli_rate_limit_test.cmake
execute_process(
  COMMAND "${CLI}" --demo internet --jobs 1 --metrics json
  RESULT_VARIABLE status
  OUTPUT_VARIABLE stdout
  ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "tracenet_cli exited with ${status}")
endif()
string(REGEX MATCH "\"probe\\.rate_limited\":([0-9]+)" found "${stdout}")
if(NOT found)
  message(FATAL_ERROR "no probe.rate_limited counter in the metrics")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "probe.rate_limited is 0: no rate limiter was installed")
endif()
