/**
 * @file
 * blitz-replay: record, replay, diff, and bisect flight-recorder logs.
 *
 *   blitz-replay record <out.blzr> [scenario flags] [--tamper IDX]
 *   blitz-replay info   <log.blzr>
 *   blitz-replay verify <log.blzr> [--threads N]
 *   blitz-replay diff   <a.blzr> <b.blzr>
 *   blitz-replay bisect <a.blzr> <b.blzr> [--context N]
 *
 * `record` runs the scenario on the deterministic sweep harness and
 * writes a self-describing log (the scenario rides in the file
 * header). `verify` re-runs the log's own scenario with a
 * lockstep-armed recorder and reports the first divergent event — by
 * construction this passes at any --threads. `bisect` binary-searches
 * two logs' snapshot epochs and prints the first divergent record with
 * its causal context.
 *
 * Exit codes: 0 = ok / identical / lockstep match; 1 = divergence
 * found; 2 = usage or I/O error, or an invalid scenario (in a log
 * header or on the record command line).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "record/replay.hpp"
#include "sim/env.hpp"

using namespace blitz;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: blitz-replay <command> ...\n"
        "  record <out.blzr> [--d N] [--drop R] [--dup R]\n"
        "         [--corrupt R] [--crash] [--partition] [--seed S]\n"
        "         [--trials T] [--threads N] [--snapshot-every N]\n"
        "         [--deadline N] [--tamper IDX]\n"
        "  info   <log.blzr>\n"
        "  verify <log.blzr> [--threads N]\n"
        "  diff   <a.blzr> <b.blzr>\n"
        "  bisect <a.blzr> <b.blzr> [--context N]\n");
    return 2;
}

bool
loadLog(const char *path, record::FlightRecorder &rec,
        record::LogHeader &header)
{
    if (record::FlightRecorder::readFile(path, rec, &header))
        return true;
    std::fprintf(stderr, "blitz-replay: cannot read log '%s'\n", path);
    return false;
}

/**
 * Decode @p header, or report why it is not a scenario and return
 * std::nullopt (the caller exits 2).
 */
std::optional<record::ReplayScenario>
scenarioOf(const record::LogHeader &header, const char *what)
{
    std::string error;
    auto sc = record::ReplayScenario::unpack(header, error);
    if (!sc)
        std::fprintf(stderr, "blitz-replay: invalid scenario in %s: %s\n",
                     what, error.c_str());
    return sc;
}

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/**
 * Value of --flag NAME at argv[i] as a count in [lo, hi]; advances i
 * past the value. A missing, malformed or out-of-range value exits 2
 * naming the flag; @p what says what the flag belongs to ("scenario"
 * for the record command's scenario flags).
 */
bool
numArg(int argc, char **argv, int &i, const char *name, std::uint64_t lo,
       std::uint64_t hi, std::uint64_t &out, const char *what = "flag")
{
    if (std::strcmp(argv[i], name) != 0)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "blitz-replay: %s needs a value\n", name);
        std::exit(2);
    }
    const auto v = sim::parseCount(argv[++i], lo, hi);
    if (!v) {
        std::fprintf(stderr,
                     "blitz-replay: invalid %s in command line: %s '%s' "
                     "is not a count in [%llu, %llu]\n",
                     what, name, argv[i],
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
        std::exit(2);
    }
    out = *v;
    return true;
}

bool
realArg(int argc, char **argv, int &i, const char *name, double &out)
{
    if (std::strcmp(argv[i], name) != 0)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "blitz-replay: %s needs a value\n", name);
        std::exit(2);
    }
    out = std::atof(argv[++i]);
    return true;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const char *out = argv[0];
    record::ReplayScenario sc;
    sweep::SweepOptions opts;
    std::uint64_t d = sc.d;
    std::uint64_t trials = sc.trials;
    std::uint64_t threads = 0;
    std::uint64_t tamperIdx = 0;
    bool tamper = false;
    for (int i = 1; i < argc; ++i) {
        if (numArg(argc, argv, i, "--d", 0, kU32Max, d, "scenario") ||
            numArg(argc, argv, i, "--seed", 0, kU64Max, sc.seed,
                   "scenario") ||
            numArg(argc, argv, i, "--trials", 0, kU32Max, trials,
                   "scenario") ||
            numArg(argc, argv, i, "--snapshot-every", 0, kU64Max,
                   sc.snapshotEvery, "scenario") ||
            numArg(argc, argv, i, "--deadline", 0, kU64Max, sc.deadline,
                   "scenario") ||
            numArg(argc, argv, i, "--threads", 0, kU32Max, threads) ||
            realArg(argc, argv, i, "--drop", sc.drop) ||
            realArg(argc, argv, i, "--dup", sc.duplicate) ||
            realArg(argc, argv, i, "--corrupt", sc.corrupt))
            continue;
        if (numArg(argc, argv, i, "--tamper", 0, kU64Max, tamperIdx))
            tamper = true;
        else if (std::strcmp(argv[i], "--crash") == 0)
            sc.crash = true;
        else if (std::strcmp(argv[i], "--partition") == 0)
            sc.partition = true;
        else
            return usage();
    }
    sc.d = static_cast<std::uint32_t>(d);
    sc.trials = static_cast<std::uint32_t>(trials);
    opts.threads = static_cast<std::size_t>(threads);
    if (!scenarioOf(sc.pack(), "command line"))
        return 2;

    record::FlightRecorder rec = record::recordScenario(sc, opts);
    if (tamper) {
        const auto idx = static_cast<unsigned long long>(tamperIdx);
        if (!record::tamperRecord(rec, tamperIdx)) {
            std::fprintf(stderr,
                         "blitz-replay: --tamper %llu out of range "
                         "(%zu records)\n",
                         idx, rec.size());
            return 2;
        }
        std::printf("tampered record #%llu\n", idx);
    }
    if (!rec.writeFile(out, sc.pack())) {
        std::fprintf(stderr, "blitz-replay: cannot write '%s'\n", out);
        return 2;
    }
    std::printf("recorded %zu events (%s) -> %s\n", rec.size(),
                sc.describe().c_str(), out);
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(rec.digest()));
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 1)
        return usage();
    record::FlightRecorder rec;
    record::LogHeader header{};
    if (!loadLog(argv[0], rec, header))
        return 2;
    const auto sc = scenarioOf(header, argv[0]);
    if (!sc)
        return 2;
    std::printf("%s\n", sc->describe().c_str());
    std::printf("%zu records, digest %016llx\n", rec.size(),
                static_cast<unsigned long long>(rec.digest()));
    std::size_t perKind[32] = {};
    for (std::size_t i = 0; i < rec.size(); ++i)
        ++perKind[static_cast<std::size_t>(rec.at(i).kind) % 32];
    for (std::size_t k = 0; k < 32; ++k) {
        if (perKind[k] == 0)
            continue;
        std::printf("  %-13s %zu\n",
                    record::recordKindName(
                        static_cast<record::RecordKind>(k)),
                    perKind[k]);
    }
    return 0;
}

int
cmdVerify(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    record::FlightRecorder ref;
    record::LogHeader header{};
    if (!loadLog(argv[0], ref, header))
        return 2;
    const auto sc = scenarioOf(header, argv[0]);
    if (!sc)
        return 2;
    sweep::SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::uint64_t v = 0;
        if (!numArg(argc, argv, i, "--threads", 0, kU32Max, v))
            return usage();
        opts.threads = static_cast<std::size_t>(v);
    }
    std::printf("replaying: %s\n", sc->describe().c_str());
    const auto res = record::replayVerify(ref, *sc, opts);
    if (res.match) {
        std::printf("lockstep match: %llu records bit-identical\n",
                    static_cast<unsigned long long>(
                        res.recordsChecked));
        return 0;
    }
    std::printf("DIVERGED at record #%llu (checked %llu)\n",
                static_cast<unsigned long long>(res.divergedAt),
                static_cast<unsigned long long>(res.recordsChecked));
    if (res.divergedAt < ref.size())
        std::printf("  log: %s\n",
                    record::describeRecord(
                        ref.at(static_cast<std::size_t>(
                            res.divergedAt)),
                        res.divergedAt)
                        .c_str());
    return 1;
}

int
cmdDiff(int argc, char **argv)
{
    if (argc != 2)
        return usage();
    record::FlightRecorder a, b;
    record::LogHeader ha{}, hb{};
    if (!loadLog(argv[0], a, ha) || !loadLog(argv[1], b, hb))
        return 2;
    const auto d = record::diffRecordings(a, b);
    if (d.identical) {
        std::printf("identical: %llu records\n",
                    static_cast<unsigned long long>(d.sizeA));
        return 0;
    }
    std::printf("differ at record #%llu (A: %llu records, "
                "B: %llu records)\n",
                static_cast<unsigned long long>(d.firstDiff),
                static_cast<unsigned long long>(d.sizeA),
                static_cast<unsigned long long>(d.sizeB));
    return 1;
}

int
cmdBisect(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    record::FlightRecorder a, b;
    record::LogHeader ha{}, hb{};
    if (!loadLog(argv[0], a, ha) || !loadLog(argv[1], b, hb))
        return 2;
    std::uint64_t context = 8;
    for (int i = 2; i < argc; ++i) {
        if (!numArg(argc, argv, i, "--context", 0, kU32Max, context))
            return usage();
    }
    const auto res = record::bisectRecordings(
        a, b, static_cast<std::size_t>(context));
    if (!res.diverged) {
        std::printf("identical: %zu records (%llu digest probes)\n",
                    a.size(),
                    static_cast<unsigned long long>(
                        res.epochsCompared));
        return 0;
    }
    std::printf("first divergence: record #%llu (epoch window "
                "[%llu, %llu), %llu digest probes)\n",
                static_cast<unsigned long long>(res.firstDiff),
                static_cast<unsigned long long>(res.windowBegin),
                static_cast<unsigned long long>(res.windowEnd),
                static_cast<unsigned long long>(res.epochsCompared));
    std::printf("%s", res.context.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const char *cmd = argv[1];
    argc -= 2;
    argv += 2;
    if (std::strcmp(cmd, "record") == 0)
        return cmdRecord(argc, argv);
    if (std::strcmp(cmd, "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(cmd, "verify") == 0)
        return cmdVerify(argc, argv);
    if (std::strcmp(cmd, "diff") == 0)
        return cmdDiff(argc, argv);
    if (std::strcmp(cmd, "bisect") == 0 ||
        std::strcmp(cmd, "--bisect") == 0)
        return cmdBisect(argc, argv);
    return usage();
}
