# Runs `tlpsim --workload mcf_pchase --set ${SET}` (CLI = the binary) and
# passes only when the run exits non-zero AND prints ${EXPECT}: a config
# the CLI must reject may neither run nor fail for some other reason.
execute_process(COMMAND "${CLI}" --workload mcf_pchase --set "${SET}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0 OR NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "expected a non-zero exit and '${EXPECT}'; got exit ${rc}:\n${out}")
endif()
