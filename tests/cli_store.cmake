# The CLI's persistent sweeps over a tiny sweep: a run that fills a
# --store prints the storeless table and streams one --out JSONL row per
# point; --resume serves every point from the store; a corrupted row is
# quarantined and recomputed, never served; and two --shard halves of
# the grid union into the whole. ${CMD} is tlpsim; stores go under ${DIR}.
cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/cli_run.cmake)
set(sweep ${CMD} --sweep --set warmup_instrs=2000,sim_instrs=5000 --jobs 4)
set(store ${DIR}/store)

run(cold ${sweep})
run(filled ${sweep} --store ${store} --out ${DIR}/rows.jsonl)
expect_same("--store" cold filled)
expect_match("--store" "${filled_err}" "reused=0 ")
string(REGEX MATCH "simulated=([0-9]+)" points "${filled_err}")
set(points ${CMAKE_MATCH_1})
file(STRINGS ${DIR}/rows.jsonl rows)
list(LENGTH rows streamed)
if(NOT streamed EQUAL points)
  message(FATAL_ERROR "--out: ${streamed} JSONL rows for ${points} points")
endif()
foreach(row ${rows})
  expect_match("--out" "${row}"
    "^{\"point\":\"[^\"]+\",\"fp\":\"[0-9a-f]+\",\"status\":\"ok\",.*,\"hit_cycle_cap\":false}$")
endforeach()

run(resumed ${sweep} --store ${store} --resume)
expect_same("--resume" cold resumed)
expect_match("--resume" "${resumed_err}" "simulated=0 ")

# Bit rot in one row's result: same length, so only the checksum sees it.
file(GLOB row_files ${store}/rows/*.row)
list(GET row_files 0 row_file)
file(READ ${row_file} text)
string(REGEX REPLACE "\nwindow_cycles\\.0 = [1-9]" "\nwindow_cycles.0 = 0"
       text "${text}")
file(WRITE ${row_file} "${text}")
run(healed ${sweep} --store ${store} --resume)
expect_same("corrupt row" cold healed)
expect_match("corrupt row" "${healed_err}" "quarantined=1 ")
file(GLOB quarantined ${store}/quarantine/*.bad)
if(NOT quarantined)
  message(FATAL_ERROR "corrupt row: nothing in ${store}/quarantine")
endif()

foreach(shard 0/2 1/2)
  run(half ${sweep} --store ${DIR}/shards --shard ${shard})
endforeach()
run(union ${sweep} --store ${DIR}/shards --resume)
expect_same("--shard" cold union)
expect_match("--shard" "${union_err}" "simulated=0 ")
file(REMOVE_RECURSE ${DIR})
