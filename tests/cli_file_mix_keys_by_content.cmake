# A file trace run on N cores (--workload file:X --cores N) is a design
# point of its own, keyed by the file's content, not by the workload name
# stored in it. Records a short pr.road trace under ${DIR}, then runs the
# kernel and the file as 2-core homogeneous mixes beside the file's
# explicit 2-copy mix, all named pr.road. The file's homogeneous row must
# equal the explicit mix's and differ from the kernel's. ${CMD} is tlpsim.
cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/cli_run.cmake)
set(trace ${DIR}/pr.road.tlt)
run(recorded ${CMD} --workload pr.road --set warmup_instrs=1000,sim_instrs=2000
    --record-trace ${trace})
run(out ${CMD} --cores 2 --workload pr.road --workload file:${trace}
    --mix file:${trace},file:${trace} --set warmup_instrs=2000,sim_instrs=5000)

# Rows are "<mix, 24 wide><scheme><ipc_sum>...": compare what follows the
# mix column.
string(REGEX MATCHALL "homo\\.pr\\.road [^\n]*" homo "${out}")
string(REGEX MATCH "pr\\.road\\+pr\\.road [^\n]*" explicit "${out}")
list(LENGTH homo rows)
if(NOT rows EQUAL 2 OR explicit STREQUAL "")
  message(FATAL_ERROR "expected two homo.pr.road rows and one "
                      "pr.road+pr.road row:\n${out}")
endif()
list(GET homo 0 kernel_row)
list(GET homo 1 file_row)
string(SUBSTRING "${kernel_row}" 24 -1 kernel_row)
string(SUBSTRING "${file_row}" 24 -1 file_row)
string(SUBSTRING "${explicit}" 24 -1 explicit)
if(NOT file_row STREQUAL explicit OR file_row STREQUAL kernel_row)
  message(FATAL_ERROR "homo.file:${trace} must carry the file's own result "
                      "(that of pr.road+pr.road), not the kernel's:\n${out}")
endif()
file(REMOVE_RECURSE ${DIR})
