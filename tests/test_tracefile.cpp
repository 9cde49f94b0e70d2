/**
 * Tests for the on-disk trace subsystem: the .tlt v1 format round trip,
 * bounded-memory streaming replay (including multi-pass wrap), every
 * malformed-file class (bad magic, unsupported version, truncation,
 * checksum and count mismatch) surfacing as a ConfigError that names the
 * file and byte offset, the ChampSim record mapping and converter (raw,
 * .xz and .gz inputs), and the workload-layer integration — "file:"
 * resolution with content-hash identities and a file-backed simulation
 * bit-identical to the in-binary kernel it was recorded from.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "tracefile/champsim.hh"
#include "tracefile/file_source.hh"
#include "tracefile/format.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace tlpsim::tracefile;
namespace fs = std::filesystem;

namespace
{

/** Fresh per-test scratch path under the gtest temp root. */
std::string
scratchPath(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("tlpsim_tf_" + name);
    fs::remove_all(p);
    return p.string();
}

std::vector<unsigned char>
readAllBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAllBytes(const std::string &path, const std::vector<unsigned char> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/** A small trace exercising every record field. */
Trace
sampleTrace(std::size_t n = 10)
{
    Trace t("sample");
    for (std::size_t i = 0; i < n; ++i) {
        TraceInstr in;
        in.ip = 0x400000 + 4 * i;
        in.ld_vaddr = (i % 3 == 0) ? 0x7f0000000000ull + 64 * i : 0;
        in.st_vaddr = (i % 4 == 1) ? 0x7f8000000000ull + 64 * i : 0;
        in.src0 = static_cast<RegId>(i % kNumRegs);
        in.src1 = static_cast<RegId>((i * 7) % kNumRegs);
        in.dst = static_cast<RegId>((i * 13) % kNumRegs);
        in.branch = static_cast<BranchKind>(i % 4);
        in.taken = (i % 2) == 1;
        t.push(in);
    }
    return t;
}

void
expectSameInstr(const TraceInstr &a, const TraceInstr &b)
{
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.ld_vaddr, b.ld_vaddr);
    EXPECT_EQ(a.st_vaddr, b.st_vaddr);
    EXPECT_EQ(a.src0, b.src0);
    EXPECT_EQ(a.src1, b.src1);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.branch, b.branch);
    EXPECT_EQ(a.taken, b.taken);
}

/** Expect fn() to throw ConfigError whose message contains every
 *  fragment (the file path plus the offset-naming phrase). */
template <typename Fn>
void
expectConfigError(Fn fn, const std::vector<std::string> &fragments)
{
    try {
        fn();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        for (const std::string &frag : fragments) {
            EXPECT_NE(msg.find(frag), std::string::npos)
                << "message '" << msg << "' lacks '" << frag << "'";
        }
    }
}

} // namespace

// ---------------------------------------------------------------- format

TEST(TraceFile, RoundTripPreservesEveryField)
{
    const std::string path = scratchPath("roundtrip.tlt");
    Trace t = sampleTrace(10);
    writeTraceFile(path, t, /*suite=*/1);

    TraceFileInfo info = verifyFile(path);
    EXPECT_EQ(info.name, "sample");
    EXPECT_EQ(info.version, 1u);
    EXPECT_EQ(info.suite, 1u);
    EXPECT_EQ(info.record_count, 10u);
    EXPECT_EQ(info.file_size,
              kFixedHeaderSize + 6 /*"sample"*/ + 10 * kRecordSize
                  + kFooterSize);

    FileTraceSource src(path);
    EXPECT_EQ(src.size(), 10u);
    EXPECT_EQ(src.name(), "sample");
    TraceInstr out[16];
    std::size_t got = src.read(out, 16);
    EXPECT_EQ(got, 10u);   // short at the pass boundary, never 0
    for (std::size_t i = 0; i < 10; ++i)
        expectSameInstr(out[i], t.at(i));
}

TEST(TraceFile, EncodeDecodeIsByteStableAndLittleEndian)
{
    TraceInstr in;
    in.ip = 0x0102030405060708ull;
    in.ld_vaddr = 0x1112131415161718ull;
    in.branch = BranchKind::Conditional;
    in.taken = true;
    unsigned char img[kRecordSize];
    encodeRecord(in, img);
    EXPECT_EQ(img[0], 0x08);   // least-significant byte first
    EXPECT_EQ(img[7], 0x01);
    EXPECT_EQ(img[8], 0x18);
    expectSameInstr(decodeRecord(img), in);

    // An out-of-range branch byte must clamp, not forge an enum value.
    img[27] = 0xee;
    EXPECT_EQ(decodeRecord(img).branch, BranchKind::NotBranch);
}

TEST(TraceFile, StreamingWrapsAcrossPassesLikeMemory)
{
    const std::string path = scratchPath("wrap.tlt");
    Trace t = sampleTrace(7);
    writeTraceFile(path, t, 0);

    // A 3-record chunk forces refills inside a pass and a seek at each
    // pass boundary; 2.5 passes must replay the memory stream exactly.
    FileTraceSource fsrc(path, /*chunk_records=*/3);
    EXPECT_EQ(fsrc.chunkBytes(), 3 * kRecordSize);
    TraceReader file_r(fsrc, 3);
    MemoryTraceSource msrc(t);
    TraceReader mem_r(msrc, 3);
    for (std::size_t i = 0; i < 7 * 2 + 3; ++i) {
        EXPECT_EQ(file_r.position(), mem_r.position());
        expectSameInstr(file_r.next(), mem_r.next());
    }
    EXPECT_EQ(file_r.consumed(), 17u);
}

TEST(TraceFile, ChunkNeverExceedsOnePassOfTinyTraces)
{
    const std::string path = scratchPath("tiny.tlt");
    writeTraceFile(path, sampleTrace(2), 0);
    FileTraceSource src(path);   // default chunk is 4096 records
    EXPECT_EQ(src.chunkBytes(), 2 * kRecordSize);
}

TEST(TraceFile, WriterRefusesEmptyTraceAndLeavesNoFile)
{
    const std::string path = scratchPath("empty.tlt");
    {
        TraceFileWriter w(path, {"nothing", 0});
        expectConfigError([&] { w.finish(); }, {path, "empty"});
    }
    // Neither the final name nor the temp file survives.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ------------------------------------------------------- malformed files

TEST(TraceFile, BadMagicNamesFileAndOffset)
{
    const std::string path = scratchPath("badmagic.tlt");
    writeTraceFile(path, sampleTrace(), 0);
    auto bytes = readAllBytes(path);
    bytes[0] = 'X';
    writeAllBytes(path, bytes);
    expectConfigError([&] { readInfo(path); },
                      {path, "bad magic at byte 0"});
}

TEST(TraceFile, UnsupportedVersionNamesBothVersions)
{
    const std::string path = scratchPath("version.tlt");
    writeTraceFile(path, sampleTrace(), 0);
    auto bytes = readAllBytes(path);
    bytes[8] = 9;   // version u32 LE at byte 8
    writeAllBytes(path, bytes);
    expectConfigError(
        [&] { readInfo(path); },
        {path, "unsupported format version 9 at byte 8", "version 1"});
}

TEST(TraceFile, TailTruncationLosesTheFooter)
{
    const std::string path = scratchPath("chopped.tlt");
    writeTraceFile(path, sampleTrace(), 0);
    auto bytes = readAllBytes(path);
    bytes.resize(bytes.size() - 5);   // cut mid-footer
    writeAllBytes(path, bytes);
    expectConfigError([&] { readInfo(path); },
                      {path, "bad footer magic", "truncated"});
}

TEST(TraceFile, MidRecordCutNamesTheRecord)
{
    const std::string path = scratchPath("midrecord.tlt");
    writeTraceFile(path, sampleTrace(10), 0);
    auto bytes = readAllBytes(path);
    // Splice 10 bytes out of the record region, keeping the footer: the
    // region is no longer a whole number of records.
    const std::size_t footer_at = bytes.size() - kFooterSize;
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(footer_at - 10),
                bytes.begin() + static_cast<std::ptrdiff_t>(footer_at));
    writeAllBytes(path, bytes);
    expectConfigError([&] { readInfo(path); },
                      {path, "truncated mid-record", "22 bytes into"});
}

TEST(TraceFile, WholeRecordLossIsACountMismatch)
{
    const std::string path = scratchPath("count.tlt");
    writeTraceFile(path, sampleTrace(10), 0);
    auto bytes = readAllBytes(path);
    const std::size_t footer_at = bytes.size() - kFooterSize;
    bytes.erase(
        bytes.begin() + static_cast<std::ptrdiff_t>(footer_at - kRecordSize),
        bytes.begin() + static_cast<std::ptrdiff_t>(footer_at));
    writeAllBytes(path, bytes);
    expectConfigError(
        [&] { readInfo(path); },
        {path, "record count mismatch", "declares 10", "holds 9"});
}

TEST(TraceFile, PayloadCorruptionFailsTheChecksum)
{
    const std::string path = scratchPath("corrupt.tlt");
    writeTraceFile(path, sampleTrace(10), 0);
    auto bytes = readAllBytes(path);
    bytes[kFixedHeaderSize + 6 + 40] ^= 0x01;   // one bit, mid-payload
    writeAllBytes(path, bytes);

    // Structure is intact...
    EXPECT_NO_THROW(readInfo(path));
    // ...but the up-front verification pass catches it,
    expectConfigError([&] { verifyFile(path); },
                      {path, "checksum mismatch", "computed"});
    // and so does a streaming replay at the end of its first pass.
    FileTraceSource src(path);
    TraceInstr out[16];
    expectConfigError(
        [&] {
            for (int i = 0; i < 4; ++i)
                src.read(out, 4);
        },
        {path, "checksum mismatch"});
}

// --------------------------------------------------------------- champsim

namespace
{

void
putU64LE(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

struct ChampSimFields
{
    std::uint64_t ip = 0x400000;
    bool is_branch = false;
    bool taken = false;
    std::uint8_t dest_regs[2] = {0, 0};
    std::uint8_t src_regs[4] = {0, 0, 0, 0};
    std::uint64_t dest_mem[2] = {0, 0};
    std::uint64_t src_mem[4] = {0, 0, 0, 0};
};

std::vector<unsigned char>
champsimRecord(const ChampSimFields &f)
{
    std::vector<unsigned char> b(kChampSimRecordSize, 0);
    putU64LE(b.data(), f.ip);
    b[8] = f.is_branch ? 1 : 0;
    b[9] = f.taken ? 1 : 0;
    b[10] = f.dest_regs[0];
    b[11] = f.dest_regs[1];
    for (int i = 0; i < 4; ++i)
        b[12 + i] = f.src_regs[i];
    for (int i = 0; i < 2; ++i)
        putU64LE(b.data() + 16 + 8 * i, f.dest_mem[i]);
    for (int i = 0; i < 4; ++i)
        putU64LE(b.data() + 32 + 8 * i, f.src_mem[i]);
    return b;
}

/** A ChampSim trace compressed by `tool` into a `.suffix` file converts
 *  through the decompressor the suffix selects. Skips when the host has
 *  no `tool`. */
void
expectCompressedInputConverts(const std::string &tool,
                              const std::string &suffix)
{
    if (std::system(("command -v " + tool + " >/dev/null 2>&1").c_str())
        != 0) {
        GTEST_SKIP() << tool << " not found: ." << suffix
                     << " input is untested on this host";
    }
    ChampSimFields load;
    load.src_mem[0] = 0x10000;
    std::vector<unsigned char> raw = champsimRecord(load);
    const auto plain = champsimRecord(ChampSimFields{});
    raw.insert(raw.end(), plain.begin(), plain.end());
    const std::string raw_path = scratchPath("packed_" + suffix + ".trace");
    writeAllBytes(raw_path, raw);
    const std::string in_path = raw_path + "." + suffix;
    ASSERT_EQ(std::system((tool + " -c '" + raw_path + "' > '" + in_path + "'")
                              .c_str()),
              0);

    const ChampSimConvertStats stats = convertChampSim(
        in_path, scratchPath("packed_" + suffix + ".tlt"),
        ChampSimConvertOptions{});
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.name, "tlpsim_tf_packed_" + suffix);
}

} // namespace

TEST(ChampSim, MemoryOperandsMapToFirstNonzero)
{
    ChampSimFields f;
    f.src_mem[1] = 0x1000;   // slot 0 empty: the scan skips zeros
    f.dest_mem[0] = 0x2000;
    TraceInstr i = decodeChampSimRecord(champsimRecord(f).data());
    EXPECT_EQ(i.ld_vaddr, 0x1000u);
    EXPECT_EQ(i.st_vaddr, 0x2000u);
    EXPECT_EQ(i.branch, BranchKind::NotBranch);
    EXPECT_TRUE(i.isLoad());
    EXPECT_TRUE(i.isStore());
}

TEST(ChampSim, RegistersRenumberIntoTlpsimSpace)
{
    ChampSimFields f;
    f.src_regs[0] = 1;
    f.src_regs[1] = 200;
    f.dest_regs[0] = 64;
    TraceInstr i = decodeChampSimRecord(champsimRecord(f).data());
    EXPECT_EQ(i.src0, 1);            // (1-1)%63+1
    EXPECT_EQ(i.src1, (200 - 1) % 63 + 1);
    EXPECT_EQ(i.dst, 1);             // (64-1)%63+1 wraps but stays nonzero
    EXPECT_NE(i.src1, kNoReg);
}

TEST(ChampSim, BranchKindRecoveredFromRegisterReads)
{
    // Reads FLAGS -> conditional.
    ChampSimFields cond;
    cond.is_branch = true;
    cond.taken = true;
    cond.src_regs[0] = kChampSimRegIP;
    cond.src_regs[1] = kChampSimRegFlags;
    TraceInstr c = decodeChampSimRecord(champsimRecord(cond).data());
    EXPECT_EQ(c.branch, BranchKind::Conditional);
    EXPECT_TRUE(c.taken);

    // Reads a general register (a target pointer) -> indirect.
    ChampSimFields ind;
    ind.is_branch = true;
    ind.taken = true;
    ind.src_regs[0] = 3;
    TraceInstr i = decodeChampSimRecord(champsimRecord(ind).data());
    EXPECT_EQ(i.branch, BranchKind::Indirect);

    // Reads only IP/SP -> direct jump or call.
    ChampSimFields dir;
    dir.is_branch = true;
    dir.taken = true;
    dir.src_regs[0] = kChampSimRegIP;
    dir.src_regs[1] = kChampSimRegSP;
    TraceInstr d = decodeChampSimRecord(champsimRecord(dir).data());
    EXPECT_EQ(d.branch, BranchKind::Direct);
}

TEST(ChampSim, ConvertsRawFileEndToEnd)
{
    const std::string in_path = scratchPath("cs.trace");
    const std::string out_path = scratchPath("cs.tlt");
    std::vector<unsigned char> raw;
    for (int i = 0; i < 5; ++i) {
        ChampSimFields f;
        f.ip = 0x400000 + 4u * static_cast<unsigned>(i);
        f.src_mem[0] = (i % 2 == 0) ? 0x10000 + 64u * static_cast<unsigned>(i)
                                    : 0;
        f.is_branch = i == 4;
        f.taken = i == 4;
        f.src_regs[0] = kChampSimRegFlags;
        auto rec = champsimRecord(f);
        raw.insert(raw.end(), rec.begin(), rec.end());
    }
    writeAllBytes(in_path, raw);

    ChampSimConvertOptions opt;
    ChampSimConvertStats stats = convertChampSim(in_path, out_path, opt);
    EXPECT_EQ(stats.records, 5u);
    EXPECT_EQ(stats.loads, 3u);
    EXPECT_EQ(stats.branches, 1u);
    // Default name: input basename with the ".trace" suffix stripped.
    EXPECT_EQ(stats.name, "tlpsim_tf_cs");

    TraceFileInfo info = verifyFile(out_path);
    EXPECT_EQ(info.record_count, 5u);
    EXPECT_EQ(info.name, "tlpsim_tf_cs");

    FileTraceSource src(out_path);
    TraceInstr out[8];
    ASSERT_EQ(src.read(out, 8), 5u);
    EXPECT_EQ(out[0].ip, 0x400000u);
    EXPECT_EQ(out[4].branch, BranchKind::Conditional);
}

TEST(ChampSim, TruncatedInputIsAnErrorNotATrace)
{
    const std::string in_path = scratchPath("cut.trace");
    const std::string out_path = scratchPath("cut.tlt");
    auto rec = champsimRecord(ChampSimFields{});
    std::vector<unsigned char> raw(rec);
    raw.insert(raw.end(), rec.begin(), rec.begin() + 20);   // 1.3 records
    writeAllBytes(in_path, raw);
    expectConfigError(
        [&] {
            convertChampSim(in_path, out_path, ChampSimConvertOptions{});
        },
        {in_path, "20 bytes into", "record #1"});
    EXPECT_FALSE(fs::exists(out_path));   // no half-written output
}

TEST(ChampSim, LimitStopsEarly)
{
    const std::string in_path = scratchPath("lim.trace");
    const std::string out_path = scratchPath("lim.tlt");
    std::vector<unsigned char> raw;
    for (int i = 0; i < 9; ++i) {
        auto rec = champsimRecord(ChampSimFields{});
        raw.insert(raw.end(), rec.begin(), rec.end());
    }
    writeAllBytes(in_path, raw);
    ChampSimConvertOptions opt;
    opt.limit = 4;
    EXPECT_EQ(convertChampSim(in_path, out_path, opt).records, 4u);
    EXPECT_EQ(readInfo(out_path).record_count, 4u);
}

TEST(ChampSim, CustomDecompressorStreamsRecords)
{
    const std::string in_path = scratchPath("pipe.trace");
    const std::string out_path = scratchPath("pipe.tlt");
    std::vector<unsigned char> raw;
    for (int i = 0; i < 5; ++i) {
        auto rec = champsimRecord(ChampSimFields{});
        raw.insert(raw.end(), rec.begin(), rec.end());
    }
    writeAllBytes(in_path, raw);
    ChampSimConvertOptions opt;
    opt.decompress_cmd = "cat --";
    EXPECT_EQ(convertChampSim(in_path, out_path, opt).records, 5u);
    EXPECT_EQ(readInfo(out_path).record_count, 5u);
}

TEST(ChampSim, XzInputStreamsThroughXz)
{
    expectCompressedInputConverts("xz", "xz");
}

TEST(ChampSim, GzInputStreamsThroughGzip)
{
    expectCompressedInputConverts("gzip", "gz");
}

TEST(ChampSim, KilledDecompressorIsAnErrorNamingTheCommand)
{
    // The child dies of SIGKILL having written nothing: the stream looks
    // like a clean (if empty) EOF, so only the wait status can tell the
    // converter the producer was killed. The shell's kill builtin kills
    // the popen'd shell itself (a wrapped command would be reaped by the
    // shell and show up as exit 137, not a signal); the trailing `#`
    // comments out the appended path.
    const std::string in_path = scratchPath("killed.trace");
    const std::string out_path = scratchPath("killed.tlt");
    writeAllBytes(in_path, champsimRecord(ChampSimFields{}));
    ChampSimConvertOptions opt;
    opt.decompress_cmd = "kill -KILL $$ #";
    expectConfigError(
        [&] { convertChampSim(in_path, out_path, opt); },
        {in_path, "kill -KILL", "killed by signal 9"});
}

TEST(ChampSim, FailingDecompressorExitStatusSurfaces)
{
    // The child emits every record, then exits nonzero — the output
    // alone is a perfectly valid trace, so the exit status must still
    // fail the conversion.
    const std::string in_path = scratchPath("exit3.trace");
    const std::string out_path = scratchPath("exit3.tlt");
    writeAllBytes(in_path, champsimRecord(ChampSimFields{}));
    ChampSimConvertOptions opt;
    opt.decompress_cmd = "sh -c 'cat \"$0\"; exit 3'";
    expectConfigError(
        [&] { convertChampSim(in_path, out_path, opt); },
        {in_path, "exit 3", "exited with status 3", "corrupt archive"});
}

// ------------------------------------------------- workload integration

TEST(FileWorkloads, ResolveAppendsVerifiedSpecWithContentIdentity)
{
    const std::string path = scratchPath("wl.tlt");
    writeTraceFile(path, sampleTrace(8), /*suite=*/1);

    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    const std::size_t before = ws.size();
    auto idx = workloads::resolveWorkloadIndices(
        ws, {"file:" + path, ws[0].name, "file:" + path}, "test");
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], idx[2]);   // same path resolves once
    EXPECT_EQ(ws.size(), before + 1);

    const auto &w = ws[static_cast<std::size_t>(idx[0])];
    EXPECT_TRUE(w.isFile());
    EXPECT_EQ(w.name, "sample");
    EXPECT_EQ(w.suite, workloads::Suite::Gap);
    EXPECT_EQ(w.pointName().rfind("tracefile:v1:", 0), 0u);
    EXPECT_EQ(w.pointName(), w.identity);

    // The content hash — not the path — keys design points.
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    EXPECT_NE(experiment::singlePointKey(w, cfg).find(w.identity),
              std::string::npos);
}

TEST(FileWorkloads, PlainNamesNeverMatchFileSpecs)
{
    const std::string path = scratchPath("shadow.tlt");
    Trace t = sampleTrace(4);
    t.setName("mcf_pchase");   // collides with an in-binary kernel
    writeTraceFile(path, t, 0);

    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    auto idx = workloads::resolveWorkloadIndices(
        ws, {"file:" + path, "mcf_pchase"}, "test");
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_NE(idx[0], idx[1]);
    EXPECT_FALSE(ws[static_cast<std::size_t>(idx[1])].isFile());
}

TEST(FileWorkloads, ResolutionCollectsFileAndNameErrorsTogether)
{
    const std::string bad = scratchPath("bad.tlt");
    writeAllBytes(bad, {'n', 'o', 'p', 'e'});
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    expectConfigError(
        [&] {
            workloads::resolveWorkloadIndices(
                ws, {"file:" + bad, "bogus_name"}, "--workload");
        },
        {bad, "truncated", "bogus_name", "file:PATH"});
}

TEST(FileWorkloads, FileBackedSpecCannotBeRecorded)
{
    const std::string path = scratchPath("norec.tlt");
    writeTraceFile(path, sampleTrace(4), 0);
    workloads::WorkloadSpec w = workloads::fileTraceWorkload(path);
    expectConfigError([&] { workloads::buildTrace(w, 100, 7); },
                      {"file-backed", path});
}

TEST(FileWorkloads, ReplayIsBitIdenticalToInBinaryKernel)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    const auto &kernel = ws[0];

    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.warmup_instrs = 2'000;
    cfg.sim_instrs = 5'000;

    // Dump exactly the stream a simulation consumes (warmup + sim,
    // default seed), then replay it from disk.
    const std::string path = scratchPath("replay.tlt");
    const Trace &trace = experiment::cachedTrace(
        kernel, cfg.warmup_instrs + cfg.sim_instrs);
    writeTraceFile(path, trace,
                   kernel.suite == workloads::Suite::Gap ? 1 : 0);
    workloads::WorkloadSpec file_w = workloads::fileTraceWorkload(path);

    SimResult mem = experiment::runSingleCore(kernel, cfg);
    SimResult file = experiment::runSingleCore(file_w, cfg);

    EXPECT_EQ(mem.scheme, file.scheme);
    EXPECT_EQ(mem.instrs, file.instrs);
    EXPECT_EQ(mem.ipc, file.ipc);   // element-wise ==: bit-exact
    EXPECT_EQ(mem.warmup_end_cycle, file.warmup_end_cycle);
    EXPECT_EQ(mem.window_cycles, file.window_cycles);
    EXPECT_EQ(mem.stats, file.stats);
}
