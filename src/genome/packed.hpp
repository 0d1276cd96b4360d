/**
 * @file
 * 2-bit packed genome storage: 4 bases per byte plus an exception list
 * for N positions. Cuts resident memory 4x for hg-scale references;
 * a chunked decode adapter feeds the (byte-per-base) scan engines.
 *
 * PackedFile adds the on-disk form (the ".2bit" format, DESIGN.md
 * §14): the same payload behind a fixed little-endian header, written
 * atomically (temp file + rename, like the pattern database) and
 * loaded via mmap on POSIX hosts, so decoding reads the kernel page
 * cache instead of a private copy of the file. Hosts without mmap
 * fall back to one heap read; the API is identical either way.
 *
 * Layout (offsets in bytes, all integers little-endian):
 *   0   char[8]  magic "CRISPR2B"
 *   8   u32      version (1)
 *   12  u32      reserved (0)
 *   16  u64      baseCount
 *   24  u64      nExceptionCount
 *   32  u8[]     packed words, (baseCount+3)/4 bytes, zero-padded to
 *                the next 8-byte boundary
 *   ..  u64[]    sorted N positions (nExceptionCount entries)
 */

#ifndef CRISPR_GENOME_PACKED_HPP_
#define CRISPR_GENOME_PACKED_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "genome/sequence.hpp"

namespace crispr::genome {

/** A 2-bit packed DNA sequence with N exceptions. */
class PackedSequence
{
  public:
    PackedSequence() = default;

    /** Pack a byte-per-base sequence. */
    static PackedSequence pack(const Sequence &seq);

    /** Unpack the whole sequence. */
    Sequence unpack() const;

    /** Decode [pos, pos+len) into `out` (resized; clamped at end). */
    void decode(size_t pos, size_t len, std::vector<uint8_t> &out) const;

    /** Base code (0-4) at a position. */
    uint8_t at(size_t pos) const;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Resident bytes (packed payload + N exceptions). */
    size_t memoryBytes() const;

    /**
     * Stream the sequence in chunks of `chunk_len` decoded codes with
     * `overlap` leading codes repeated from the previous chunk (for
     * seamless pattern scanning). fn(chunk_start, codes) where codes
     * spans [chunk_start - lead, chunk_end).
     */
    void forEachChunk(size_t chunk_len, size_t overlap,
                      const std::function<void(
                          size_t, std::span<const uint8_t>)> &fn) const;

    /** The packed payload, exposed for the PackedFile writer. */
    std::span<const uint8_t> words() const { return words_; }
    std::span<const uint64_t> nExceptions() const { return nPositions_; }

  private:
    size_t size_ = 0;
    std::vector<uint8_t> words_;       //!< 4 bases per byte
    std::vector<uint64_t> nPositions_; //!< sorted N positions
};

/**
 * A read-only ".2bit" packed genome file (layout in the file
 * comment), decoded on demand. map() prefers POSIX mmap(PROT_READ,
 * MAP_SHARED) — every mapping of one file shares the same physical
 * pages — and falls back to a single heap read where mmap is
 * unavailable. Handles are immutable and safe to share across
 * threads.
 */
class PackedFile
{
  public:
    static constexpr uint32_t kVersion = 1;
    /** Fixed header size (bytes) preceding the packed words. */
    static constexpr size_t kHeaderBytes = 32;

    /**
     * Serialize `packed` to `path` atomically: the bytes land in a
     * unique temp file first and rename() publishes them, so a reader
     * never observes a torn file (the PatternDatabase store idiom).
     */
    static common::Status write(const std::string &path,
                                const PackedSequence &packed);

    /** Pack + write in one call. */
    static common::Status writeSequence(const std::string &path,
                                        const Sequence &seq);

    /**
     * Map `path` read-only. Rejects bad magic, unknown versions, size
     * arithmetic that disagrees with the actual file length, and
     * unsorted/out-of-range N exceptions (the file is attacker-shaped
     * bytes until proven otherwise).
     */
    static common::Expected<std::shared_ptr<const PackedFile>>
    map(const std::string &path);

    ~PackedFile();
    PackedFile(const PackedFile &) = delete;
    PackedFile &operator=(const PackedFile &) = delete;

    size_t size() const { return size_; } //!< bases
    /** Bytes resident via the mapping (or the heap fallback). */
    size_t fileBytes() const { return fileBytes_; }
    /** True when backed by mmap (false on the heap-read fallback). */
    bool memoryMapped() const { return mmapped_; }

    /** Decode [pos, pos+len) into `out` (resized; clamped at end). */
    void decode(size_t pos, size_t len, std::vector<uint8_t> &out) const;

    /** Decode the whole sequence. */
    Sequence unpack() const;

  private:
    PackedFile() = default;

    size_t size_ = 0;
    size_t fileBytes_ = 0;
    bool mmapped_ = false;
    void *mapBase_ = nullptr;          //!< mmap base (when mmapped_)
    std::vector<uint8_t> heap_;        //!< fallback storage
    std::span<const uint8_t> words_;   //!< into mapBase_ or heap_
    std::span<const uint64_t> nPositions_;
};

} // namespace crispr::genome

#endif // CRISPR_GENOME_PACKED_HPP_
