#include "recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace blitz::record {

const char *
recordKindName(RecordKind k)
{
    switch (k) {
    case RecordKind::Mint:
        return "mint";
    case RecordKind::Burn:
        return "burn";
    case RecordKind::Remint:
        return "remint";
    case RecordKind::Exchange:
        return "exchange";
    case RecordKind::NocDeliver:
        return "noc-deliver";
    case RecordKind::FaultDrop:
        return "fault-drop";
    case RecordKind::FaultDelay:
        return "fault-delay";
    case RecordKind::FaultDuplicate:
        return "fault-duplicate";
    case RecordKind::FaultCorrupt:
        return "fault-corrupt";
    case RecordKind::Crash:
        return "crash";
    case RecordKind::Restart:
        return "restart";
    case RecordKind::PmActuation:
        return "pm-actuation";
    case RecordKind::Snapshot:
        return "snapshot";
    case RecordKind::SnapshotMark:
        return "snapshot-mark";
    case RecordKind::Byzantine:
        return "byzantine";
    case RecordKind::Guardian:
        return "guardian";
    case RecordKind::Throttle:
        return "throttle";
    }
    return "?";
}

FlightRecorder::FlightRecorder(Config cfg)
    : cfg_(cfg), writeCursor_(cfg.chunkRecords)
{
    if (cfg_.chunkRecords == 0)
        cfg_.chunkRecords = 1;
}

void
FlightRecorder::advanceChunk()
{
    if (cfg_.maxChunks > 0 && chunks_.size() == cfg_.maxChunks) {
        // Ring path: recycle the oldest chunk in place. A rotate of
        // maxChunks pointers, no allocation — the steady state the
        // alloc-count test pins.
        std::rotate(chunks_.begin(), chunks_.begin() + 1,
                    chunks_.end());
        dropped_ += cfg_.chunkRecords;
    } else {
        chunks_.emplace_back(new Record[cfg_.chunkRecords]);
    }
    writeChunk_ = chunks_.size() - 1;
    writeCursor_ = 0;
}

void
FlightRecorder::checkLockstep(const Record &r)
{
    if (diverged_)
        return;
    const std::uint64_t idx = appended_ - 1;
    if (idx >= ref_->baseIndex() + ref_->size()) {
        diverged_ = true;
        divergedAt_ = idx;
        return;
    }
    const Record &want =
        ref_->at(static_cast<std::size_t>(idx - ref_->baseIndex()));
    if (r != want) {
        diverged_ = true;
        divergedAt_ = idx;
    }
}

void
FlightRecorder::absorb(const FlightRecorder &o, std::uint32_t lane)
{
    const std::uint32_t keep = lane_;
    lane_ = lane;
    for (std::size_t i = 0; i < o.size(); ++i)
        append(o.at(i));
    lane_ = keep;
}

void
FlightRecorder::clear()
{
    chunks_.clear();
    writeChunk_ = 0;
    writeCursor_ = cfg_.chunkRecords;
    appended_ = 0;
    dropped_ = 0;
    ref_ = nullptr;
    diverged_ = false;
    divergedAt_ = 0;
}

std::uint64_t
FlightRecorder::digest() const
{
    sim::Fnv1a d;
    for (std::size_t i = 0; i < size(); ++i) {
        const Record &r = at(i);
        d.u64(r.tick)
            .u64((static_cast<std::uint64_t>(r.lane) << 32) |
                 (static_cast<std::uint64_t>(r.kind) << 24) |
                 (static_cast<std::uint64_t>(r.flag) << 16) | r.aux)
            .i64(r.p0)
            .i64(r.p1)
            .i64(r.p2)
            .i64(r.p3);
    }
    return d.value();
}

namespace {
constexpr char kMagic[4] = {'B', 'L', 'Z', 'R'};
constexpr std::uint32_t kVersion = 1;
} // namespace

bool
FlightRecorder::writeFile(const std::string &path,
                          const LogHeader &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(kMagic, 1, 4, f) == 4 &&
              std::fwrite(&kVersion, sizeof kVersion, 1, f) == 1 &&
              std::fwrite(header.data(), sizeof(std::uint64_t),
                          header.size(), f) == header.size();
    const std::uint64_t count = size();
    ok = ok && std::fwrite(&count, sizeof count, 1, f) == 1;
    for (std::size_t i = 0; ok && i < size(); ++i) {
        const Record &r = at(i);
        ok = std::fwrite(&r, sizeof r, 1, f) == 1;
    }
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

bool
FlightRecorder::readFile(const std::string &path, FlightRecorder &out,
                         LogHeader *header)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char magic[4];
    std::uint32_t version = 0;
    LogHeader hdr{};
    std::uint64_t count = 0;
    bool ok = std::fread(magic, 1, 4, f) == 4 &&
              std::memcmp(magic, kMagic, 4) == 0 &&
              std::fread(&version, sizeof version, 1, f) == 1 &&
              version == kVersion &&
              std::fread(hdr.data(), sizeof(std::uint64_t), hdr.size(),
                         f) == hdr.size() &&
              std::fread(&count, sizeof count, 1, f) == 1;
    if (ok) {
        out.clear();
        out.cfg_.maxChunks = 0; // loaded logs are never rings
        for (std::uint64_t i = 0; ok && i < count; ++i) {
            Record r;
            ok = std::fread(&r, sizeof r, 1, f) == 1;
            if (ok) {
                // Preserve the recorded lane rather than restamping.
                if (out.writeCursor_ == out.cfg_.chunkRecords)
                    out.advanceChunk();
                out.chunks_[out.writeChunk_][out.writeCursor_++] = r;
                ++out.appended_;
            }
        }
    }
    std::fclose(f);
    if (ok && header != nullptr)
        *header = hdr;
    return ok;
}

} // namespace blitz::record
