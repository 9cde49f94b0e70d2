# The CLI prints the same table at --jobs 1 and --jobs 4: for a tiny
# single-core sweep, for a 2-core mix sweep, and for the replay of a
# recorded trace, whose table also equals the in-binary kernel's. ${CMD}
# is tlpsim; the trace goes under ${DIR}.
cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/cli_run.cmake)
set(scale --set warmup_instrs=2000,sim_instrs=5000)
set(trace ${DIR}/mcf_pchase.tlt)
run(recorded ${CMD} --workload mcf_pchase ${scale} --record-trace ${trace})

foreach(jobs 1 4)
  run(sweep${jobs} ${CMD} --sweep ${scale} --jobs ${jobs})
  run(mix${jobs} ${CMD} --cores 2 --mix mcf_pchase,bfs.kron
      --mix bfs.kron+bfs.road --scheme baseline --scheme tlp ${scale}
      --jobs ${jobs})
  run(kernel${jobs} ${CMD} --workload mcf_pchase --scheme baseline
      --scheme tlp ${scale} --jobs ${jobs})
  run(file${jobs} ${CMD} --workload file:${trace} --scheme baseline
      --scheme tlp ${scale} --jobs ${jobs})
endforeach()

expect_same("single-core sweep" sweep1 sweep4)
expect_match("single-core sweep" "${sweep1}" "\nbfs\\.kron +tlp ")
expect_same("2-core mix sweep" mix1 mix4)
expect_match("2-core mix sweep" "${mix1}" "\nmcf_pchase\\+bfs\\.kron +tlp ")
expect_same("file: replay" kernel1 kernel4 file1 file4)
expect_match("file: replay" "${file1}" "\nmcf_pchase +tlp ")
file(REMOVE_RECURSE ${DIR})
