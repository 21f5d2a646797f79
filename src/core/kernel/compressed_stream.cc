#include "core/kernel/compressed_stream.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitstream.hh"
#include "common/logging.hh"
#include "compress/huffman.hh"
#include "core/kernel/compiled_layer.hh"

namespace eie::core::kernel {

namespace {

/** The continuation escape of the delta byte stream: a 255 symbol
 *  adds 255 to the running delta and extends into the next symbol,
 *  so any delta fits a short byte sequence while typical deltas
 *  (dense-ish slices) stay one cheap symbol. */
constexpr unsigned kDeltaEscape = 255;

/** Longest legal canonical codeword (HuffmanCode rejects deeper). */
constexpr unsigned kMaxCodeLength = 32;

/** Width of the table-decode peek window: codewords at most this
 *  long decode in one table lookup (virtually all symbols — the
 *  delta distribution is steep); longer ones take the per-length
 *  walk. 2^10 entries keep the table build cheap per slice. */
constexpr unsigned kPeekBits = 10;
constexpr std::uint32_t kPeekMask = (1u << kPeekBits) - 1;

/** LutEntry::bits of a slot the fast path must not take (no
 *  codeword of at most kPeekBits matches, or it is the escape):
 *  larger than any buffered bit count, so the one "enough bits?"
 *  comparison of the hot loop also routes these to the slow path. */
constexpr std::uint8_t kSlowSlot = 0xff;

[[noreturn]] void
malformed(const char *what)
{
    throw CompressedStreamError(
        std::string("compressed stream: ") + what);
}

/** One peek-table slot for the fast path: consume @ref bits bits
 *  and emit @ref count complete (non-escape) row deltas, stored as
 *  prefix increments (delta + 1): @ref inc1, then @ref inc2 — 0 when
 *  count is 1, so the hot loop needs no select. */
struct LutEntry
{
    std::uint8_t bits = kSlowSlot;
    std::uint8_t count = 1;
    std::uint8_t inc1 = 0;
    std::uint8_t inc2 = 0;
};

/**
 * A canonical-Huffman table decoder over the (length, symbol)-sorted
 * sequential code assignment of compress::HuffmanCode::canonicalize:
 * per length L with count[L] codewords, the first codeword is the
 * previous length's last-plus-one shifted left, and symbols ascend
 * within a length. Decoding peeks kPeekBits into a one-hit lookup
 * table; the per-length walk remains as the fallback for codewords
 * longer than the window.
 */
struct CanonicalDecoder
{
    std::array<std::uint32_t, kMaxCodeLength + 1> count{};
    std::array<std::uint32_t, kMaxCodeLength + 1> first_code{};
    std::array<std::uint32_t, kMaxCodeLength + 1> offset{};
    std::array<std::uint8_t, 256> symbols{}; ///< by (length, symbol)
    unsigned max_length = 0;

    /** Fast-path peek table indexed by the next kPeekBits of the
     *  stream in transmission order (codeword bits land LSB-first,
     *  so the index holds each codeword bit-reversed). */
    std::array<LutEntry, 1u << kPeekBits> lut{};
    /** The single codeword owning each slot, escapes included, for
     *  the slow path: its length (0 = none within the window) and
     *  symbol. */
    std::array<std::uint8_t, 1u << kPeekBits> slot_length{};
    std::array<std::uint8_t, 1u << kPeekBits> slot_symbol{};

    /** Build from a code-length table; throws on a malformed one.
     *  Returns false for an empty code. */
    bool
    build(const std::array<std::uint8_t, 256> &lengths)
    {
        for (unsigned s = 0; s < 256; ++s) {
            const unsigned len = lengths[s];
            if (len == 0)
                continue;
            if (len > kMaxCodeLength)
                malformed("code length exceeds 32 bits");
            ++count[len];
        }
        std::uint64_t code = 0;
        unsigned prev_len = 0;
        std::uint32_t assigned = 0;
        for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
            if (count[len] == 0)
                continue;
            code <<= (len - prev_len);
            prev_len = len;
            first_code[len] = static_cast<std::uint32_t>(code);
            offset[len] = assigned;
            code += count[len];
            assigned += count[len];
            // An over-subscribed length table would assign codewords
            // past the 2^len code space: garbage, not a code.
            if (code > (std::uint64_t{1} << len))
                malformed("over-subscribed code-length table");
            max_length = len;
        }
        if (assigned == 0)
            return false;
        // Symbols ascend within a length, so one ascending pass with
        // per-length write cursors produces the (length, symbol)
        // order directly.
        std::array<std::uint32_t, kMaxCodeLength + 1> cursor = offset;
        for (unsigned s = 0; s < 256; ++s)
            if (lengths[s] != 0)
                symbols[cursor[lengths[s]]++] =
                    static_cast<std::uint8_t>(s);

        // Each codeword of length L <= kPeekBits owns every slot
        // whose low L bits are its bit-reversed code.
        for (unsigned len = 1;
             len <= std::min(max_length, kPeekBits); ++len) {
            for (std::uint32_t r = 0; r < count[len]; ++r) {
                const std::uint32_t codeword = first_code[len] + r;
                std::uint32_t reversed = 0;
                for (unsigned b = 0; b < len; ++b)
                    reversed |= ((codeword >> b) & 1u)
                        << (len - 1 - b);
                const std::uint8_t sym = symbols[offset[len] + r];
                LutEntry entry;
                if (sym != kDeltaEscape) {
                    entry.bits = static_cast<std::uint8_t>(len);
                    entry.inc1 = static_cast<std::uint8_t>(sym + 1);
                }
                for (std::uint32_t slot = reversed;
                     slot < (1u << kPeekBits);
                     slot += (1u << len)) {
                    lut[slot] = entry;
                    slot_length[slot] = static_cast<std::uint8_t>(len);
                    slot_symbol[slot] = sym;
                }
            }
        }

        // Pair pass: a slot whose remaining window bits hold another
        // complete non-escape codeword decodes two deltas at once.
        // Descending, so slot >> bits (< slot) is still single; and
        // select-only, as which slots pair is data, not a pattern.
        // A slow slot's 0xff bits fail the window test by itself.
        for (std::uint32_t slot = 1u << kPeekBits; slot-- > 0;) {
            LutEntry &first = lut[slot];
            const LutEntry second = lut[slot >> (first.bits & 0xf)];
            const bool pair = first.bits + second.bits <= kPeekBits;
            first.inc2 = pair ? second.inc1 : 0;
            first.count = pair ? 2 : 1;
            first.bits = static_cast<std::uint8_t>(
                pair ? first.bits + second.bits : first.bits);
        }
        return true;
    }
};

/** The delta bitstream's bytes, trimmed to delta_bit_count. */
struct BitSource
{
    const std::uint8_t *bytes = nullptr;
    std::uint64_t end = 0;      ///< bytes holding stream bits
    std::int64_t fast_end = 0;  ///< last start of an 8-byte load
    unsigned pad = 0;           ///< unused bits of the last byte
};

/** A 64-bit refill buffer over a BitSource: the next unconsumed
 *  stream bit is the buffer's LSB, and @ref bits counts the valid
 *  stream bits buffered (bits above it may hold stale copies of the
 *  following bytes or the last byte's padding, never counted). */
struct BitCursor
{
    std::uint64_t buf = 0;
    std::uint64_t next = 0; ///< next byte to load
    unsigned bits = 0;
};

/** Top @p cursor up to at least 56 valid bits with one unaligned
 *  8-byte load. Needs cursor.bits < 64 and cursor.next <=
 *  source.fast_end. */
inline void
refillWord(const BitSource &source, BitCursor &cursor)
{
    std::uint64_t word;
    std::memcpy(&word, source.bytes + cursor.next, sizeof(word));
    if constexpr (std::endian::native == std::endian::big)
        word = __builtin_bswap64(word);
    cursor.buf |= word << cursor.bits;
    cursor.next += (63 - cursor.bits) >> 3; // whole bytes added
    cursor.bits |= 56;
}

/** Top @p cursor up to at least 56 valid bits, or every bit left.
 *  Needs cursor.bits < 64. */
inline void
refill(const BitSource &source, BitCursor &cursor)
{
    if (static_cast<std::int64_t>(cursor.next) <= source.fast_end) {
        refillWord(source, cursor);
        return;
    }
    while (cursor.bits <= 56 && cursor.next < source.end) {
        cursor.buf |= static_cast<std::uint64_t>(
                          source.bytes[cursor.next++])
            << cursor.bits;
        cursor.bits += 8;
        if (cursor.next == source.end)
            cursor.bits -= source.pad;
    }
}

/** Decode one symbol: a peek-table hit for codewords at most
 *  kPeekBits long, the per-length walk for longer ones and for
 *  truncated tails (which it reports as malformed). */
unsigned
decodeSymbol(const CanonicalDecoder &decoder, const BitSource &source,
             BitCursor &cursor)
{
    if (cursor.bits < kPeekBits)
        refill(source, cursor);
    const std::uint32_t slot = cursor.buf & kPeekMask;
    const unsigned len = decoder.slot_length[slot];
    if (len != 0 && len <= cursor.bits) {
        cursor.buf >>= len;
        cursor.bits -= len;
        return decoder.slot_symbol[slot];
    }
    std::uint32_t code = 0;
    for (unsigned l = 1; l <= decoder.max_length; ++l) {
        if (cursor.bits == 0) {
            refill(source, cursor);
            if (cursor.bits == 0)
                malformed("truncated delta bitstream");
        }
        code = (code << 1) | static_cast<std::uint32_t>(cursor.buf & 1);
        cursor.buf >>= 1;
        --cursor.bits;
        if (decoder.count[l] == 0)
            continue;
        const std::uint32_t first = decoder.first_code[l];
        if (code >= first && code - first < decoder.count[l])
            return decoder.symbols[decoder.offset[l] + (code - first)];
    }
    malformed("bit pattern matches no codeword");
}

/** A delta decoded off the fast path, with the advanced cursor (the
 *  cursor goes by value both ways: an address of the hot loop's lane
 *  escaping would keep the lane in memory). */
struct SlowDelta
{
    BitCursor cursor;
    std::uint64_t delta;
};

/** One whole row delta — escape continuations folded in — for the
 *  slots the fast path declines and a block's odd last entry. */
[[gnu::noinline]] SlowDelta
decodeDeltaSlow(const CanonicalDecoder &decoder,
                const BitSource &source, BitCursor cursor,
                std::uint64_t rows_limit)
{
    std::uint64_t delta = 0;
    unsigned symbol;
    while ((symbol = decodeSymbol(decoder, source, cursor)) ==
           kDeltaEscape) {
        delta += kDeltaEscape;
        if (delta > rows_limit)
            malformed("runaway row delta");
    }
    delta += symbol;
    if (delta > rows_limit)
        malformed("runaway row delta");
    return {cursor, delta};
}

/** What a lane reads but never writes: the slow path's decoder and
 *  limit, and the bytes the cursor loads from. */
struct LaneSource
{
    const CanonicalDecoder *decoder = nullptr;
    BitSource source;
    std::uint64_t rows_limit = 0; ///< the slice's local rows
};

/** The hot state of one walker's block decode, held in locals: the
 *  prefix stores would otherwise force it back to memory. Only what
 *  the table steps update lives here, so two lanes fit the
 *  registers. */
struct Lane
{
    const LaneSource *src = nullptr;
    const LutEntry *lut = nullptr;
    BitCursor cursor;
    std::uint64_t *out = nullptr; ///< next prefix slot to write
    std::uint64_t *end = nullptr; ///< one past the block's last slot
    std::uint64_t run = 0;        ///< prefix after the last entry

    std::ptrdiff_t left() const { return end - out; }

    /** Whether refillWord() may load 8 bytes. */
    bool
    farFromEnd() const
    {
        return static_cast<std::int64_t>(cursor.next) <=
            src->source.fast_end;
    }
};

/** Decode one whole delta off the fast path into the next slot. */
inline void
slowStep(Lane &lane)
{
    const SlowDelta slow = decodeDeltaSlow(
        *lane.src->decoder, lane.src->source, lane.cursor,
        lane.src->rows_limit);
    lane.cursor = slow.cursor;
    lane.run += slow.delta + 1;
    *lane.out++ = lane.run;
}

/** Decode one or two entries from the buffered bits; needs
 *  lane.left() >= 2 (a single-delta slot also writes the slot after
 *  its own, which the next step overwrites). The only branch is the
 *  rare slow slot or an empty buffer. */
inline void
tableStep(Lane &lane)
{
    const LutEntry entry = lane.lut[lane.cursor.buf & kPeekMask];
    if (entry.bits > lane.cursor.bits) [[unlikely]] {
        slowStep(lane);
        return;
    }
    lane.cursor.buf >>= entry.bits;
    lane.cursor.bits -= entry.bits;
    const std::uint64_t first = lane.run + entry.inc1;
    lane.run = first + entry.inc2;
    lane.out[0] = first;
    lane.out[1] = lane.run;
    lane.out += entry.count;
}

/** tableStep() with its own refill check, for block and stream
 *  tails. */
inline void
checkedStep(Lane &lane)
{
    if (lane.cursor.bits < kPeekBits)
        refill(lane.src->source, lane.cursor);
    tableStep(lane);
}

/** Table steps per refillWord(): each consumes at most kPeekBits of
 *  the >= 56 bits a refill leaves. */
constexpr int kStepsPerRefill = 4;

/** Decode the rest of @p lane's block alone. By value, like every
 *  lane helper that is not inlined: a lane whose address escapes is
 *  kept in memory, putting a store-to-load round trip on the walk's
 *  dependency chain. */
Lane
finishLane(Lane lane)
{
    while (lane.left() > 2 * kStepsPerRefill && lane.farFromEnd()) {
        refillWord(lane.src->source, lane.cursor);
        for (int step = 0; step < kStepsPerRefill; ++step)
            tableStep(lane);
    }
    while (lane.left() >= 2)
        checkedStep(lane);
    if (lane.left() == 1)
        slowStep(lane);
    return lane;
}

} // namespace

/** A walker's decode state: the stream, its decoder table, the bit
 *  cursor and the reused prefix buffer. */
struct SliceWalker::State
{
    const CompressedSliceStream &stream;
    CanonicalDecoder decoder;
    LaneSource lane_source;
    BitCursor cursor;
    std::unique_ptr<std::uint64_t[]> prefix;
    std::uint32_t next_col = 0;
    std::uint32_t cols = 0;

    explicit State(const CompressedSliceStream &s) : stream(s) {}

    /** Pick the next block (columns [next_col, end) holding at most
     *  kBlockEntries entries, or one wider column) and describe it
     *  in @p block; returns its decode lane. */
    Lane
    beginBlock(DecodedBlock &block)
    {
        const std::uint32_t *cp = stream.col_ptr.data();
        const std::uint32_t e0 = cp[next_col];
        std::uint32_t col_end = next_col;
        if (next_col < cols) {
            const std::uint32_t limit = e0 +
                std::min(SliceWalker::kBlockEntries,
                         stream.entry_count - e0);
            col_end = static_cast<std::uint32_t>(
                std::upper_bound(cp + next_col + 1, cp + cols + 1,
                                 limit) -
                cp - 1);
            col_end = std::max(col_end, next_col + 1);
        }
        block.col_begin = next_col;
        block.col_end = col_end;
        block.entry_begin = e0;
        block.prefix = prefix.get();
        prefix[0] = 0;
        Lane lane;
        lane.src = &lane_source;
        lane.lut = decoder.lut.data();
        lane.cursor = cursor;
        lane.out = prefix.get() + 1;
        lane.end = lane.out + (cp[col_end] - e0);
        next_col = col_end;
        return lane;
    }

    /** Keep the lane's final @p end_cursor and range-check every
     *  column of the block: rows ascend within a column, so a column
     *  is in range iff its last row, the column's prefix span minus
     *  one, is. */
    void
    endBlock(BitCursor end_cursor, const DecodedBlock &block)
    {
        cursor = end_cursor;
        const std::uint32_t *cp = stream.col_ptr.data();
        const std::uint64_t *pre = block.prefix;
        const std::uint64_t rows = stream.local_rows;
        std::uint64_t prev = 0;
        bool out_of_range = false;
        for (std::uint32_t j = block.col_begin; j < block.col_end;
             ++j) {
            const std::uint64_t next = pre[cp[j + 1] - block.entry_begin];
            out_of_range |= next - prev > rows;
            prev = next;
        }
        if (out_of_range)
            malformed("row outside the slice's range");
    }
};

SliceWalker::SliceWalker(const CompressedSliceStream &stream)
    : state_(std::make_unique<State>(stream))
{
    // Structural validation before any array walk: every quantity the
    // walk indexes by must be internally consistent, so a garbage
    // stream throws here instead of reading out of bounds later.
    const auto &col_ptr = stream.col_ptr;
    if (stream.n_pe == 0)
        malformed("zero PE count");
    if (col_ptr.empty())
        malformed("empty column pointer array");
    if (col_ptr.front() != 0)
        malformed("column pointers do not start at 0");
    // Reductions instead of an early-out branch per column so the
    // check vectorizes (wide layers have one col_ptr per column).
    std::uint32_t non_monotone = 0;
    std::uint32_t widest = 0;
    for (std::size_t j = 0; j + 1 < col_ptr.size(); ++j) {
        non_monotone |=
            static_cast<std::uint32_t>(col_ptr[j] > col_ptr[j + 1]);
        widest = std::max(widest, col_ptr[j + 1] - col_ptr[j]);
    }
    if (non_monotone)
        malformed("column pointers not monotone");
    if (col_ptr.back() != stream.entry_count)
        malformed("column pointers do not cover the entry count");
    if (stream.nibbles.size() !=
        (static_cast<std::size_t>(stream.entry_count) + 1) / 2)
        malformed("nibble array does not match the entry count");
    if (stream.delta_bit_count > stream.delta_bits.size() * 8ull)
        malformed("delta bit count exceeds the backing bytes");
    if (stream.entry_count > 0 && stream.local_rows == 0)
        malformed("entries in a slice with no rows");
    // Global rows must stay in uint32 (they index accumulators).
    if (stream.local_rows > 0 &&
        (static_cast<std::uint64_t>(stream.local_rows - 1) *
             stream.n_pe +
         stream.pe) > 0xffffffffull)
        malformed("row range overflows 32-bit row indices");

    State &state = *state_;
    state.cols = static_cast<std::uint32_t>(col_ptr.size() - 1);
    if (stream.entry_count > 0 &&
        !state.decoder.build(stream.code_lengths))
        malformed("entries but an empty code-length table");
    const std::uint64_t bytes = (stream.delta_bit_count + 7) / 8;
    BitSource &source = state.lane_source.source;
    source.bytes = stream.delta_bits.data();
    source.end = bytes;
    source.fast_end = static_cast<std::int64_t>(bytes) - 8;
    source.pad =
        static_cast<unsigned>(bytes * 8 - stream.delta_bit_count);
    state.lane_source.decoder = &state.decoder;
    state.lane_source.rows_limit = stream.local_rows;
    state.prefix = std::make_unique_for_overwrite<std::uint64_t[]>(
        static_cast<std::size_t>(std::min(
            std::max(kBlockEntries, widest), stream.entry_count)) +
        1);
    block_.col_begin = block_.col_end = 0;
    block_.prefix = state.prefix.get();
}

SliceWalker::~SliceWalker() = default;

bool
SliceWalker::done() const
{
    return state_->next_col == state_->cols;
}

void
SliceWalker::advance(SliceWalker &a, SliceWalker *b)
{
    // The lanes are locals: the prefix stores (uint64) may alias any
    // int64/uint64 the loop would otherwise read from memory.
    Lane lane_a = a.state_->beginBlock(a.block_);
    Lane lane_b;
    if (b)
        lane_b = b->state_->beginBlock(b->block_);

    // Both Huffman walks in one loop body: two independent
    // dependency chains the core overlaps. Then each finishes alone.
    while (lane_a.left() > 2 * kStepsPerRefill &&
           lane_b.left() > 2 * kStepsPerRefill && lane_a.farFromEnd() &&
           lane_b.farFromEnd()) {
        refillWord(lane_a.src->source, lane_a.cursor);
        refillWord(lane_b.src->source, lane_b.cursor);
        static_assert(kStepsPerRefill == 4);
        tableStep(lane_a);
        tableStep(lane_b);
        tableStep(lane_a);
        tableStep(lane_b);
        tableStep(lane_a);
        tableStep(lane_b);
        tableStep(lane_a);
        tableStep(lane_b);
    }
    lane_a = finishLane(lane_a);
    lane_b = finishLane(lane_b);

    a.state_->endBlock(lane_a.cursor, a.block_);
    if (b)
        b->state_->endBlock(lane_b.cursor, b->block_);
}

std::size_t
CompressedSliceStream::byteSize() const
{
    return col_ptr.size() * sizeof(std::uint32_t) + nibbles.size() +
        delta_bits.size() + code_lengths.size() +
        weight_lut.size() * sizeof(std::int32_t);
}

CompressedSliceStream
CompressedSliceStream::encode(const compress::DecodedSliceImage &image,
                              const std::vector<std::int64_t> &raw_lut,
                              unsigned n_pe, unsigned pe,
                              std::uint32_t local_rows)
{
    panic_if(raw_lut.size() > 16, "codebook with %zu > 16 entries",
             raw_lut.size());
    panic_if(image.col_ptr.empty(), "slice image with no columns");
    panic_if(image.local_rows.size() != image.weight_indices.size(),
             "slice image rows/indices mismatch");

    CompressedSliceStream stream;
    stream.n_pe = n_pe;
    stream.pe = pe;
    stream.local_rows = local_rows;
    stream.entry_count =
        static_cast<std::uint32_t>(image.local_rows.size());
    stream.col_ptr = image.col_ptr;
    for (std::size_t v = 0; v < raw_lut.size(); ++v)
        stream.weight_lut[v] = static_cast<std::int32_t>(raw_lut[v]);

    // Packed 4-bit codebook indices, two entries per byte.
    stream.nibbles.assign((image.weight_indices.size() + 1) / 2, 0);
    for (std::size_t e = 0; e < image.weight_indices.size(); ++e) {
        const std::uint8_t index = image.weight_indices[e];
        panic_if(index >= 16, "codebook index %u out of range", index);
        stream.nibbles[e / 2] |= static_cast<std::uint8_t>(
            index << ((e % 2) * 4));
    }

    // Per-column local-row deltas as a byte stream (the zero-run
    // field of §III-B, re-derived from the padding-stripped image so
    // runs past 255 take the escape instead of padding entries).
    std::vector<std::uint8_t> deltas;
    deltas.reserve(image.local_rows.size());
    for (std::size_t j = 0; j + 1 < image.col_ptr.size(); ++j) {
        std::int64_t prev = -1;
        for (std::uint32_t e = image.col_ptr[j];
             e < image.col_ptr[j + 1]; ++e) {
            const std::int64_t row = image.local_rows[e];
            panic_if(row <= prev,
                     "slice image rows not ascending in column %zu",
                     j);
            std::int64_t delta = row - prev - 1;
            prev = row;
            while (delta >= static_cast<std::int64_t>(kDeltaEscape)) {
                deltas.push_back(
                    static_cast<std::uint8_t>(kDeltaEscape));
                delta -= kDeltaEscape;
            }
            deltas.push_back(static_cast<std::uint8_t>(delta));
        }
    }

    if (!deltas.empty()) {
        const auto code = compress::HuffmanCode::fromFrequencies(
            compress::countFrequencies(deltas));
        for (unsigned s = 0; s < 256; ++s)
            stream.code_lengths[s] = static_cast<std::uint8_t>(
                code.codeLength(static_cast<std::uint8_t>(s)));
        BitWriter writer;
        code.encode(deltas, writer);
        stream.delta_bits = writer.bytes();
        stream.delta_bit_count = writer.bitCount();
    }
    return stream;
}

void
CompressedSliceStream::checkFits(const SliceSlot &slot) const
{
    if (col_ptr.size() != slot.cols + 1 || n_pe != slot.n_pe ||
        pe != slot.pe || local_rows != slot.local_rows)
        malformed("stream header does not match its tile slice");
    for (const std::int32_t value : weight_lut)
        if (value < slot.weight_min || value > slot.weight_max)
            malformed("codebook value outside the weight format");
}

void
CompressedSliceStream::decode(SliceStream &out) const
{
    SliceWalker walker(*this);
    out.col_ptr = col_ptr;
    out.packed.clear();
    out.rows.resize(entry_count);
    out.weights.resize(entry_count);
    const std::uint32_t *cp = col_ptr.data();
    while (!walker.done()) {
        SliceWalker::advance(walker, nullptr);
        const DecodedBlock &block = walker.block();
        for (std::uint32_t j = block.col_begin; j < block.col_end; ++j)
            for (std::uint32_t e = cp[j]; e < cp[j + 1]; ++e) {
                out.rows[e] = static_cast<std::uint32_t>(
                    block.localRow(cp[j], e) * n_pe + pe);
                out.weights[e] = weight(e);
            }
    }
}

} // namespace eie::core::kernel
