#include "hscan/database.hpp"

#include "common/logging.hpp"
#include "common/serial.hpp"
#include "hscan/dfa_scanner.hpp"
#include "hscan/simd_shiftor.hpp"

namespace crispr::hscan {

Database
Database::compile(std::vector<automata::HammingSpec> specs,
                  const DatabaseOptions &opts)
{
    if (specs.empty())
        fatal("cannot compile an empty pattern database");
    Database db;
    db.specs_ = std::move(specs);
    db.opts_ = opts;

    switch (opts.mode) {
      case ScanMode::BitParallel:
        db.effective_ = ScanMode::BitParallel;
        break;
      case ScanMode::Dfa:
      case ScanMode::Auto: {
        DfaOptions dopts;
        dopts.maxStates = opts.maxDfaStates;
        dopts.minimize = opts.minimizeDfa;
        db.dfaProto_ = DfaScanner::compile(db.specs_, dopts);
        if (db.dfaProto_) {
            db.effective_ = ScanMode::Dfa;
        } else if (opts.mode == ScanMode::Dfa) {
            fatal("DFA compilation exceeded the %u-state budget",
                  opts.maxDfaStates);
        } else {
            db.effective_ = ScanMode::BitParallel;
        }
        break;
      }
    }
    if (db.effective_ == ScanMode::BitParallel)
        db.simdLayout_ = buildShiftOrSoA(db.specs_);
    return db;
}

namespace {

constexpr uint32_t kCompiledFormatVersion = 1;

void
putSpec(common::BlobWriter &w, const automata::HammingSpec &s)
{
    w.u32(static_cast<uint32_t>(s.masks.size()));
    w.u32(static_cast<uint32_t>(s.maxMismatches));
    w.u64(s.mismatchLo);
    w.u64(s.mismatchHi == SIZE_MAX ? UINT64_MAX : s.mismatchHi);
    w.u32(s.reportId);
    w.bytes(s.masks);
}

automata::HammingSpec
getSpec(common::BlobReader &r, uint32_t index)
{
    automata::HammingSpec s;
    const uint32_t len = r.u32();
    const uint32_t mm = r.u32();
    if (r.ok() && (len == 0 || len > r.remaining()))
        r.fail(strprintf("pattern %u has invalid length %u", index,
                         len));
    if (r.ok() && mm > len)
        r.fail(strprintf("pattern %u has mismatch budget %u over its "
                         "length",
                         index, mm));
    s.maxMismatches = static_cast<int>(mm);
    s.mismatchLo = static_cast<size_t>(r.u64());
    const uint64_t hi = r.u64();
    s.mismatchHi = hi == UINT64_MAX ? SIZE_MAX
                                    : static_cast<size_t>(hi);
    s.reportId = r.u32();
    auto masks = r.raw(len);
    s.masks.assign(masks.begin(), masks.end());
    return s;
}

} // namespace

std::vector<uint8_t>
Database::serializeCompiled() const
{
    common::BlobWriter w;
    w.u8(static_cast<uint8_t>(opts_.mode));
    w.u32(opts_.maxDfaStates);
    w.u8(opts_.minimizeDfa ? 1 : 0);
    w.u8(static_cast<uint8_t>(effective_));
    w.u32(static_cast<uint32_t>(specs_.size()));
    for (const auto &s : specs_)
        putSpec(w, s);
    if (dfaProto_) {
        w.u8(1);
        const std::vector<uint8_t> dfa = dfaProto_->dfa().encode();
        w.u32(static_cast<uint32_t>(dfa.size()));
        w.bytes(dfa);
    } else {
        w.u8(0);
    }
    return common::sealBlob("hscan-db", kCompiledFormatVersion,
                            w.buffer());
}

common::Expected<Database>
Database::deserializeCompiled(std::span<const uint8_t> blob)
{
    using common::Error;
    using common::ErrorCode;
    auto payload =
        common::openBlob("hscan-db", kCompiledFormatVersion, blob);
    if (!payload.ok())
        return payload.error();
    common::BlobReader r(payload.value());

    Database db;
    const uint8_t mode = r.u8();
    if (r.ok() && mode > static_cast<uint8_t>(ScanMode::BitParallel))
        r.fail(strprintf("invalid scan mode %u", mode));
    db.opts_.mode = static_cast<ScanMode>(mode);
    db.opts_.maxDfaStates = r.u32();
    db.opts_.minimizeDfa = r.u8() != 0;
    const uint8_t effective = r.u8();
    if (r.ok() &&
        (effective > static_cast<uint8_t>(ScanMode::BitParallel) ||
         effective == static_cast<uint8_t>(ScanMode::Auto)))
        r.fail(strprintf("invalid effective mode %u", effective));
    db.effective_ = static_cast<ScanMode>(effective);
    const uint32_t count = r.u32();
    // Every pattern record needs at least its 24-byte fixed header;
    // validate before any allocation sized from the payload.
    if (r.ok() &&
        (count == 0 || static_cast<uint64_t>(count) * 24 >
                           r.remaining()))
        r.fail(strprintf("pattern count %u is implausible", count));
    if (auto st = r.status(); !st.ok())
        return st.error();
    db.specs_.reserve(count);
    for (uint32_t i = 0; r.ok() && i < count; ++i)
        db.specs_.push_back(getSpec(r, i));

    const uint8_t has_dfa = r.u8();
    if (db.effective_ == ScanMode::Dfa && has_dfa == 0)
        r.fail("DFA-path database blob carries no DFA tables");
    if (has_dfa) {
        const uint32_t dfa_size = r.u32();
        auto dfa_blob = r.raw(dfa_size);
        if (auto st = r.status(); !st.ok())
            return st.error();
        auto dfa = automata::Dfa::decode(dfa_blob);
        if (!dfa.ok())
            return dfa.error();
        db.dfaProto_ = DfaScanner::fromDfa(std::move(dfa).value());
    }
    if (auto st = r.finish(); !st.ok())
        return st.error();
    if (db.effective_ == ScanMode::BitParallel)
        db.simdLayout_ = buildShiftOrSoA(db.specs_);
    return db;
}

std::string
Database::info() const
{
    const char *mode = effective_ == ScanMode::Dfa ? "dfa" : "bit-parallel";
    size_t positions = 0;
    for (const auto &s : specs_)
        positions += s.masks.size();
    return strprintf("hscan db: %zu patterns, %zu positions, path=%s",
                     specs_.size(), positions, mode);
}

} // namespace crispr::hscan
