# A file trace run on N cores (--workload file:X --cores N) is a design
# point of its own, keyed by the file's content, not by the workload name
# stored in it. Records a short trace of ${KERNEL} under ${DIR}, then runs
# the kernel and the file as 2-core homogeneous mixes beside the file's
# explicit 2-copy mix, all named after ${KERNEL}. The file's homogeneous
# row must equal the explicit mix's and differ from the kernel's.
set(trace ${DIR}/cli_file_mix_keys.tlt)
execute_process(COMMAND "${CMD}" --workload ${KERNEL}
                        --set warmup_instrs=1000,sim_instrs=2000
                        --record-trace ${trace}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recording ${trace} failed (exit ${rc}):\n${out}")
endif()
execute_process(COMMAND "${CMD}" --cores 2 --workload ${KERNEL}
                        --workload file:${trace}
                        --mix file:${trace},file:${trace}
                        --set warmup_instrs=2000,sim_instrs=5000
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE ${trace})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mix run failed (exit ${rc}):\n${out}${err}")
endif()

# Rows are "<mix, 24 wide><scheme><ipc_sum>...": compare what follows the
# mix column.
string(REPLACE "." "\\." name "${KERNEL}")
string(REGEX MATCHALL "homo\\.${name} [^\n]*" homo "${out}")
string(REGEX MATCH "${name}\\+${name} [^\n]*" explicit "${out}")
list(LENGTH homo rows)
if(NOT rows EQUAL 2 OR explicit STREQUAL "")
  message(FATAL_ERROR "expected two homo.${KERNEL} rows and one "
                      "${KERNEL}+${KERNEL} row:\n${out}")
endif()
list(GET homo 0 kernel_row)
list(GET homo 1 file_row)
string(SUBSTRING "${kernel_row}" 24 -1 kernel_row)
string(SUBSTRING "${file_row}" 24 -1 file_row)
string(SUBSTRING "${explicit}" 24 -1 explicit)
if(NOT file_row STREQUAL explicit OR file_row STREQUAL kernel_row)
  message(FATAL_ERROR "homo.file:${trace} must carry the file's own result "
                      "(that of ${KERNEL}+${KERNEL}), not the kernel's:\n"
                      "${out}")
endif()
