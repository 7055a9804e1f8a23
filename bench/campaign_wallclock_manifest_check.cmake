# ctest script: campaign_wallclock writes a run manifest that the shared
# reader accepts and that `mpinspect diff` gates against itself.
#
#   cmake -DBENCH=<campaign_wallclock> -DMPINSPECT=<mpinspect>
#         -DOUT=<file.json> -P campaign_wallclock_manifest_check.cmake
#
# Runs only the resilience group (default testbed, one untimed campaign,
# the kernel sweep), so it stays a sub-second tier-1 check.
execute_process(COMMAND ${BENCH} --phases resilience ${OUT} 1
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_wallclock exited ${rc}")
endif()

# summarize goes through ManifestReader and exits non-zero unless ok().
execute_process(COMMAND ${MPINSPECT} summarize ${OUT} --json
                OUTPUT_VARIABLE summary RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ManifestReader rejected ${OUT} (exit ${rc})")
endif()
foreach(expected "\"tool\": \"campaign_wallclock\""
                 "\"schema\": 1,"
                 "\"name\": \"resilience_kernel_ms\"")
  string(FIND "${summary}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "summary of ${OUT} lacks ${expected}:\n${summary}")
  endif()
endforeach()

execute_process(COMMAND ${MPINSPECT} diff ${OUT} ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mpinspect diff of ${OUT} against itself exited ${rc}")
endif()
