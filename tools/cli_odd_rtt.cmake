# An odd --rtt-ms must not run as the even value below it: the one-way
# delay is half the RTT, so 41 ms gives 20.5 ms each way, not 20.
#
#   cmake -DCLI=<path to quicsteps_cli> -P tools/cli_odd_rtt.cmake
#
# Runs the same transfer at --rtt-ms 40 and 41 and fails when the two
# print the same bytes.
foreach(rtt 40 41)
  execute_process(
    COMMAND ${CLI} --stack ideal --payload-mib 1 --reps 1 --rtt-ms ${rtt}
    OUTPUT_VARIABLE out_${rtt}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quicsteps_cli --rtt-ms ${rtt} exited with ${rc}")
  endif()
endforeach()
if(out_40 STREQUAL out_41)
  message(FATAL_ERROR "--rtt-ms 41 printed exactly what --rtt-ms 40 prints")
endif()
