# tlpsim-trace end to end: `info` and `verify` read a trace that ${CMD}
# (tlpsim) records; then a ChampSim trace that ${PYTHON} writes, and xz
# compresses where the host has xz, is converted to a .tlt and simulated.
# ${TRACE_TOOL} is tlpsim-trace; files go under ${DIR}.
cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/cli_run.cmake)
set(scale --set warmup_instrs=2000,sim_instrs=5000)

run(recorded ${CMD} --workload mcf_pchase ${scale}
    --record-trace ${DIR}/mcf.tlt)
run(info ${TRACE_TOOL} info ${DIR}/mcf.tlt)
expect_match("info" "${info}" "\nname +: mcf_pchase\n.*\nrecords +: 7000\n")
run(verified ${TRACE_TOOL} verify ${DIR}/mcf.tlt)
expect_match("verify" "${verified}" "\nchecksum OK\n$")

if(NOT PYTHON)
  message(STATUS "python3 not found: ChampSim conversion is untested")
  file(REMOVE_RECURSE ${DIR})
  return()
endif()
# 64-byte ChampSim records: every 3rd loads, every 5th stores, every 7th
# is a branch that reads the flags register (25).
set(champsim ${DIR}/micro.champsimtrace)
run(written ${PYTHON} -c [=[
import struct, sys
with open(sys.argv[1], "wb") as f:
    for i in range(2000):
        branch = i % 7 == 0
        f.write(struct.pack(
            "<Q2B2B4B2Q4Q", 0x400000 + i % 1024 * 4, branch, i % 14 == 0,
            3, 0, 25 if branch else 4, 5, 0, 0,
            0x800000 + i * 64 if i % 5 == 0 else 0, 0,
            0x900000 + i % 4096 * 64 if i % 3 == 0 else 0, 0, 0, 0))
]=] ${champsim})
find_program(XZ xz)
if(XZ)
  run(compressed ${XZ} -0 -k ${champsim})
  set(champsim ${champsim}.xz)
else()
  message(STATUS "xz not found: converting the uncompressed trace")
endif()
run(converted ${TRACE_TOOL} convert ${champsim} ${DIR}/micro.tlt
    --name micro --suite gap)
expect_match("convert" "${converted}"
  "name micro, 2000 record\\(s\\): 667 load\\(s\\), 400 store\\(s\\), 286 branch")
run(verified ${TRACE_TOOL} verify ${DIR}/micro.tlt)
expect_match("verify converted" "${verified}"
  "\nsuite +: gap\n.*\nchecksum OK\n$")
run(table ${CMD} --workload file:${DIR}/micro.tlt --scheme tlp ${scale})
expect_match("replay" "${table}" "\nmicro +tlp ")
file(REMOVE_RECURSE ${DIR})
