/**
 * @file
 * The compressed-resident kernel stream (KernelStream v2c).
 *
 * EIE's central premise is that weights stay *compressed* next to the
 * compute and are decoded on the fly; the pre-decoded SoA streams of
 * compiled_layer.hh invert that trade — they optimize the MAC inner
 * loop at ~12 resident bytes per entry, so a large multi-model
 * serving process is footprint- and memory-bandwidth-bound long
 * before it is ALU-bound. CompressedSliceStream restores the paper's
 * trade in software: one PE slice of one tile stored as
 *
 *  - packed 4-bit codebook indices (two entries per byte, the
 *    Spmat nibble exactly),
 *  - a canonical-Huffman-coded stream of PE-local row deltas per
 *    column (delta = local_row - prev - 1, with a 255-continuation
 *    escape for runs past one byte), byte-aligned per slice,
 *  - the 256-entry code-length table the canonical code rebuilds
 *    from (the representation compress/huffman.hh stores),
 *  - the verbatim per-column extents (col_ptr) and the 16-entry
 *    codebook LUT of raw fixed-point weight values.
 *
 * The fused compressed kernel never expands a whole stream: a
 * SliceWalker walks it one column block at a time into a small
 * reused prefix buffer, and executor.cc's MAC loops consume each
 * block while it is still in L1. decode() drives the same walker to
 * expand a stream into the SliceStream shape, bit for bit what
 * compile() would have produced — the one decoder, kept for tests.
 *
 * Robustness contract: the walker (hence decode()) performs its own
 * bounds checks and throws CompressedStreamError on any malformed
 * stream — truncated bits, over-subscribed code-length tables,
 * runaway deltas, rows out of the slice's range — and never reads or
 * writes out of bounds. checkFits() adds the checks that tie a
 * stream to the tile slot it is swept into. (BitReader::panic_if
 * aborts the process on underrun, which is the wrong failure mode
 * for data that may cross a trust boundary; the hot decoder here is
 * also a table walk, not the std::map lookup of HuffmanCode::decode.)
 */

#ifndef EIE_CORE_KERNEL_COMPRESSED_STREAM_HH
#define EIE_CORE_KERNEL_COMPRESSED_STREAM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/interleaved.hh"

namespace eie::core::kernel {

struct SliceSlot;
struct SliceStream;

/** A malformed compressed stream (typed so callers can distinguish
 *  data corruption from programming errors). */
class CompressedStreamError : public std::runtime_error
{
  public:
    explicit CompressedStreamError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * One PE slice of one tile in compressed-resident form. Plain data:
 * copyable, no hidden decode state, byte-accounted by byteSize().
 */
struct CompressedSliceStream
{
    /** Interleaving parameters: global row = local * n_pe + pe. */
    std::uint32_t n_pe = 1;
    std::uint32_t pe = 0;

    /** PE-local rows this slice owns (decoded rows validate < this). */
    std::uint32_t local_rows = 0;

    /** Total (padding-stripped) entries across all columns. */
    std::uint32_t entry_count = 0;

    /** Per-column entry extents, pass cols + 1 offsets. */
    std::vector<std::uint32_t> col_ptr;

    /** Packed 4-bit codebook indices: entry e in nibble e of
     *  nibbles[e / 2] (low nibble first), (entry_count + 1) / 2
     *  bytes. */
    std::vector<std::uint8_t> nibbles;

    /** Canonical-Huffman bitstream of the per-column local-row delta
     *  bytes (LSB-first byte packing, codewords MSB-first — the
     *  compress/huffman.hh convention). */
    std::vector<std::uint8_t> delta_bits;
    std::uint64_t delta_bit_count = 0;

    /** Canonical code length per delta byte symbol (0 = absent). */
    std::array<std::uint8_t, 256> code_lengths{};

    /** Codebook raw values (weight_format fixed point). */
    std::array<std::int32_t, 16> weight_lut{};

    /** Resident bytes of this stream (arrays + tables). */
    std::size_t byteSize() const;

    /** Codebook value of entry @p e (its nibble through weight_lut). */
    std::int32_t
    weight(std::uint32_t e) const
    {
        return weight_lut[(nibbles[e / 2] >> ((e % 2) * 4)) & 0xf];
    }

    /**
     * Encode one tile-slice from its padding-stripped decoded image
     * and the tile codebook's raw values — the exact inputs
     * CompiledLayer::compile lowers into the decoded SliceStream, so
     * encode + decode reproduces it bit for bit.
     */
    static CompressedSliceStream
    encode(const compress::DecodedSliceImage &image,
           const std::vector<std::int64_t> &raw_lut, unsigned n_pe,
           unsigned pe, std::uint32_t local_rows);

    /**
     * Throw CompressedStreamError unless this stream's header fits
     * @p slot: the column count, PE interleaving and local row count
     * of the tile slice it is swept into, and codebook values inside
     * the layer's weight format. A stream that is internally valid
     * but disagrees would index accumulators outside its tile.
     */
    void checkFits(const SliceSlot &slot) const;

    /**
     * Expand into @p out (rows / weights / col_ptr; the packed mirror
     * is left empty). A thin wrapper over SliceWalker: the same
     * decoder and the same verdicts as the fused kernel.
     *
     * @throws CompressedStreamError on any malformed stream; on
     *         throw @p out is in an unspecified but valid state.
     */
    void decode(SliceStream &out) const;
};

/** The tile slot a compressed stream is swept into. */
struct SliceSlot
{
    std::size_t cols = 0;          ///< tile columns (col_ptr: cols + 1)
    std::uint32_t n_pe = 1;        ///< the layer's PE count
    std::uint32_t pe = 0;          ///< the slice's PE index
    std::uint32_t local_rows = 0;  ///< rows the slice owns in the tile
    std::int64_t weight_min = 0;   ///< weight_format raw range
    std::int64_t weight_max = 0;
};

/** One decoded column block of a SliceWalker. */
struct DecodedBlock
{
    std::uint32_t col_begin = 0;   ///< columns [col_begin, col_end)
    std::uint32_t col_end = 0;
    std::uint32_t entry_begin = 0; ///< col_ptr[col_begin]

    /**
     * prefix[i] is the sum of (row delta + 1) over the block's first
     * i entries, so entry e of the column whose first entry is s sits
     * at PE-local row prefix[e + 1 - entry_begin] -
     * prefix[s - entry_begin] - 1. Every row of the block has been
     * range-checked when the block is handed out.
     */
    const std::uint64_t *prefix = nullptr;

    /** Local row of entry @p e of the column starting at entry @p s. */
    std::uint64_t
    localRow(std::uint32_t s, std::uint32_t e) const
    {
        return prefix[e + 1 - entry_begin] - prefix[s - entry_begin] -
            1;
    }
};

/**
 * The streaming decoder of one CompressedSliceStream. Each advance()
 * entropy-walks the next column block — at most kBlockEntries
 * entries, or one column when a single column holds more — into a
 * reused prefix buffer (16 KB, L1-sized with its partner's, unless
 * a wider column sizes it up), and
 * range-checks every row of the block, so a caller may skip a
 * block's columns without skipping their validation. advance() runs
 * the Huffman walks of two walkers in lockstep: the walks are
 * serial dependency chains, and interleaving two independent ones
 * lets an out-of-order core overlap them.
 *
 * The decoder table (a 10-bit peek table rebuilt from the 256 code
 * lengths) is built per walker and never kept resident.
 */
class SliceWalker
{
  public:
    /** Prefix-buffer capacity per block, in entries. */
    static constexpr std::uint32_t kBlockEntries = 2048;

    /**
     * Validate @p stream's structure and build its decoder table.
     * The walker reads @p stream in place, so it must outlive the
     * walker.
     *
     * @throws CompressedStreamError on a malformed stream.
     */
    explicit SliceWalker(const CompressedSliceStream &stream);
    ~SliceWalker();

    SliceWalker(const SliceWalker &) = delete;
    SliceWalker &operator=(const SliceWalker &) = delete;

    /** Whether every column has been walked. */
    bool done() const;

    /** The block of the last advance() (empty once done). */
    const DecodedBlock &block() const { return block_; }

    /**
     * Decode the next block of @p a and, when @p b is non-null, of
     * @p b, in lockstep. A walker that is already done gets an empty
     * block.
     *
     * @throws CompressedStreamError on a malformed stream.
     */
    static void advance(SliceWalker &a, SliceWalker *b);

  private:
    struct State;
    std::unique_ptr<State> state_;
    DecodedBlock block_;
};

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_COMPRESSED_STREAM_HH
