# Helpers for the CLI test scripts that CMakeLists.txt registers.
# Including this file empties the script's scratch directory ${DIR}; a
# passing script removes it.
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})

# run(<out> <command>...): runs the command and fails the test unless it
# exits 0. Sets <out> to its stdout and <out>_err to its stderr.
function(run out)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " cmd)
    message(FATAL_ERROR "`${cmd}` exited ${rc}:\n${stdout}${stderr}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
  set(${out}_err "${stderr}" PARENT_SCOPE)
endfunction()

# expect_same(<what> <var>...): every named variable holds the text of
# the first.
function(expect_same what first)
  foreach(other ${ARGN})
    if(NOT "${${other}}" STREQUAL "${${first}}")
      message(FATAL_ERROR "${what}: ${first} and ${other} differ:\n"
                          "--- ${first}\n${${first}}--- ${other}\n${${other}}")
    endif()
  endforeach()
endfunction()

# expect_match(<what> <text> <regex>): the text matches the regex.
function(expect_match what text regex)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "${what}: expected '${regex}' in:\n${text}")
  endif()
endfunction()
