# Passes when BIN run with the single argument ARG exits 1 and names EXPECT
# on standard error:
#   cmake -DBIN=<program> -DARG=<argument> -DEXPECT=<text> -P expect_reject.cmake
execute_process(COMMAND ${BIN} ${ARG} RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${BIN} ${ARG}: exit '${rc}', expected 1\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARG}: stderr does not name '${EXPECT}':\n${err}")
endif()
