#include "core/kernel/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <type_traits>

#include "common/fixed_point.hh"
#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EIE_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace eie::core::kernel {

namespace {

/**
 * Per-pass activation panel of the sparse variants: the active
 * (non-zero) frames of each column, gathered once per tile instead of
 * once per PE per frame. Column j's active frames occupy slots
 * [j*B, j*B + count[j]).
 */
struct ActivationPanel
{
    std::vector<std::uint32_t> frame; ///< frame index of each slot
    std::vector<std::int64_t> value;  ///< activation value of the slot
    std::vector<std::uint32_t> count; ///< active frames per column

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t cols = col_end - col_begin;
        const std::size_t batch = inputs.size();
        frame.resize(cols * batch);
        value.resize(cols * batch);
        count.assign(cols, 0);
        for (std::size_t j = 0; j < cols; ++j) {
            std::uint32_t n = 0;
            const std::size_t base = j * batch;
            for (std::size_t b = 0; b < batch; ++b) {
                const std::int64_t a = inputs[b][col_begin + j];
                if (a == 0)
                    continue; // the LNZD would never broadcast it
                frame[base + n] = static_cast<std::uint32_t>(b);
                value[base + n] = a;
                ++n;
            }
            count[j] = n;
        }
    }
};

/**
 * Per-pass activation panel of the actsparse variant: each frame
 * compressed into a compact (column, value) queue by a front-end
 * nonzero scan — the paper's NZ-detect / CSC activation vector.
 * Frame b's queue occupies slots [begin[b], begin[b+1]), columns in
 * ascending tile-relative order, so the per-frame stream walk visits
 * columns in the same order as the reference sweep and stays
 * bit-exact. Zero activations never enter a queue: batch-1 cost
 * scales with activation density, not layer width.
 */
struct QueuePanel
{
    std::vector<std::uint32_t> col;   ///< tile-relative column
    std::vector<std::int64_t> value;  ///< activation value
    std::vector<std::uint32_t> begin; ///< frame b: [begin[b], begin[b+1])

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t batch = inputs.size();
        col.clear();
        value.clear();
        col.reserve(batch * (col_end - col_begin));
        value.reserve(batch * (col_end - col_begin));
        begin.assign(batch + 1, 0);
        for (std::size_t b = 0; b < batch; ++b) {
            const std::int64_t *input = inputs[b].data();
            for (std::size_t j = col_begin; j < col_end; ++j) {
                const std::int64_t a = input[j];
                if (a == 0)
                    continue;
                col.push_back(
                    static_cast<std::uint32_t>(j - col_begin));
                value.push_back(a);
            }
            begin[b + 1] = static_cast<std::uint32_t>(col.size());
        }
    }
};

/**
 * Per-pass activation panel of the vector variant: every frame of
 * every column, transposed to column-major int32 so the MAC row
 * kernel streams contiguous lanes. Zero activations stay in place —
 * their product is zero and sat(acc + 0) == acc, so the dense sweep
 * is bit-exact with the sparse skip — but columns with no active
 * frame at all are flagged and skipped whole.
 */
struct DensePanel
{
    std::vector<std::int32_t> value;  ///< cols x batch, column-major
    std::vector<std::uint8_t> active; ///< any non-zero frame in column

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        const std::size_t cols = col_end - col_begin;
        const std::size_t batch = inputs.size();
        value.resize(cols * batch);
        active.assign(cols, 0);
        for (std::size_t j = 0; j < cols; ++j) {
            const std::size_t base = j * batch;
            std::uint8_t any = 0;
            for (std::size_t b = 0; b < batch; ++b) {
                // In act_format range by the withinActFormat() gate
                // in runBatch(), so the cast is value-preserving.
                const std::int64_t a = inputs[b][col_begin + j];
                value[base + b] = static_cast<std::int32_t>(a);
                any |= a != 0;
            }
            active[j] = any;
        }
    }
};

// ------------------------------------------------- MAC row kernels

/**
 * One saturating MAC row of the vector variant:
 * acc[b] = clamp(acc[b] + ((w * act[b]) >> shift), lo, hi) for every
 * frame b. All intermediates fit 32-bit lanes by vectorEligible();
 * C++20 guarantees the arithmetic right shift on negatives.
 */
using MacRowFn = void (*)(std::int32_t *acc, const std::int32_t *act,
                          std::int32_t w, int shift, std::int32_t lo,
                          std::int32_t hi, std::size_t n);

void
macRowScalar(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
             int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    for (std::size_t b = 0; b < n; ++b) {
        std::int32_t v = acc[b] + ((w * act[b]) >> shift);
        v = v < lo ? lo : v;
        v = v > hi ? hi : v;
        acc[b] = v;
    }
}

#if defined(EIE_KERNEL_X86)

__attribute__((target("sse4.1"))) void
macRowSse41(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
            int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    const __m128i vw = _mm_set1_epi32(w);
    const __m128i vlo = _mm_set1_epi32(lo);
    const __m128i vhi = _mm_set1_epi32(hi);
    const __m128i vshift = _mm_cvtsi32_si128(shift);
    std::size_t b = 0;
    for (; b + 4 <= n; b += 4) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(act + b));
        const __m128i vacc = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(acc + b));
        __m128i v = _mm_add_epi32(
            vacc, _mm_sra_epi32(_mm_mullo_epi32(vw, va), vshift));
        v = _mm_min_epi32(_mm_max_epi32(v, vlo), vhi);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(acc + b), v);
    }
    macRowScalar(acc + b, act + b, w, shift, lo, hi, n - b);
}

__attribute__((target("avx512f,avx512bw"))) void
macRowAvx512(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
             int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    const __m512i vw = _mm512_set1_epi32(w);
    const __m512i vlo = _mm512_set1_epi32(lo);
    const __m512i vhi = _mm512_set1_epi32(hi);
    const __m128i vshift = _mm_cvtsi32_si128(shift);
    std::size_t b = 0;
    for (; b + 16 <= n; b += 16) {
        const __m512i va = _mm512_loadu_si512(
            reinterpret_cast<const void *>(act + b));
        const __m512i vacc = _mm512_loadu_si512(
            reinterpret_cast<const void *>(acc + b));
        __m512i v = _mm512_add_epi32(
            vacc,
            _mm512_sra_epi32(_mm512_mullo_epi32(vw, va), vshift));
        v = _mm512_min_epi32(_mm512_max_epi32(v, vlo), vhi);
        _mm512_storeu_si512(reinterpret_cast<void *>(acc + b), v);
    }
    if (b < n) {
        // The ragged tail in one masked op; masked-off lanes are
        // neither read nor written.
        const __mmask16 mask =
            static_cast<__mmask16>((1u << (n - b)) - 1);
        const __m512i va = _mm512_maskz_loadu_epi32(mask, act + b);
        const __m512i vacc = _mm512_maskz_loadu_epi32(mask, acc + b);
        __m512i v = _mm512_add_epi32(
            vacc,
            _mm512_sra_epi32(_mm512_mullo_epi32(vw, va), vshift));
        v = _mm512_min_epi32(_mm512_max_epi32(v, vlo), vhi);
        _mm512_mask_storeu_epi32(acc + b, mask, v);
    }
}

__attribute__((target("avx2"))) void
macRowAvx2(std::int32_t *acc, const std::int32_t *act, std::int32_t w,
           int shift, std::int32_t lo, std::int32_t hi, std::size_t n)
{
    const __m256i vw = _mm256_set1_epi32(w);
    const __m256i vlo = _mm256_set1_epi32(lo);
    const __m256i vhi = _mm256_set1_epi32(hi);
    const __m128i vshift = _mm_cvtsi32_si128(shift);
    std::size_t b = 0;
    for (; b + 8 <= n; b += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(act + b));
        const __m256i vacc = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + b));
        __m256i v = _mm256_add_epi32(
            vacc,
            _mm256_sra_epi32(_mm256_mullo_epi32(vw, va), vshift));
        v = _mm256_min_epi32(_mm256_max_epi32(v, vlo), vhi);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + b), v);
    }
    if (b < n) {
        // The ragged tail in one masked op; masked-off lanes are
        // neither read nor written.
        const __m256i mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(n - b)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        const __m256i va = _mm256_maskload_epi32(act + b, mask);
        const __m256i vacc = _mm256_maskload_epi32(acc + b, mask);
        __m256i v = _mm256_add_epi32(
            vacc,
            _mm256_sra_epi32(_mm256_mullo_epi32(vw, va), vshift));
        v = _mm256_min_epi32(_mm256_max_epi32(v, vlo), vhi);
        _mm256_maskstore_epi32(acc + b, mask, v);
    }
}

#endif // EIE_KERNEL_X86

/**
 * The nonzero columns of one decoded compressed block, for a MAC
 * block kernel: columns cols[0..n_cols) (tile-relative, ascending,
 * all inside the block), whose entries sit at PE-local rows
 * prefix[e + 1 - entry_begin] - prefix[s - entry_begin] - 1 for
 * column start s, weights through their nibbles, MACed into the
 * dense accumulators with each column's activations from @ref act.
 */
struct MacBlock
{
    std::int32_t *acc;
    std::size_t batch;
    const std::int32_t *act; ///< the panel: cols x batch
    const std::uint32_t *cols;
    std::size_t n_cols;
    const std::uint32_t *col_ptr;
    const std::uint64_t *prefix;
    std::uint32_t entry_begin;
    const std::uint8_t *nibbles;
    const std::int32_t *lut;
    std::uint64_t n_pe;
    std::uint64_t pe;
    int shift;
    std::int32_t lo;
    std::int32_t hi;
};

/** The fused compressed walk's vector MAC: one dispatched call per
 *  block, so the row kernel inlines into the entry loop instead of
 *  costing an indirect call per entry. */
using MacBlockFn = void (*)(const MacBlock &block);

template <typename RowFn>
[[gnu::always_inline]] inline void
macBlockWith(const RowFn &row_fn, const MacBlock &b)
{
    // Locals, not b's fields: the int32 accumulator stores could
    // alias them and force a reload per entry.
    std::int32_t *const acc = b.acc;
    const std::size_t batch = b.batch;
    const std::uint32_t *const cp = b.col_ptr;
    const std::uint8_t *const nibbles = b.nibbles;
    const std::int32_t *const lut = b.lut;
    const std::uint64_t n_pe = b.n_pe;
    const std::uint64_t pe = b.pe;
    const int shift = b.shift;
    const std::int32_t lo = b.lo;
    const std::int32_t hi = b.hi;
    for (std::size_t q = 0; q < b.n_cols; ++q) {
        const std::uint32_t j = b.cols[q];
        const std::int32_t *const act = b.act + j * batch;
        const std::uint64_t *pre = b.prefix + (cp[j] - b.entry_begin);
        const std::uint64_t base = pre[0] + 1;
        const std::uint32_t e_end = cp[j + 1];
        for (std::uint32_t e = cp[j]; e < e_end; ++e) {
            const std::uint64_t row = (*++pre - base) * n_pe + pe;
            const std::int32_t w =
                lut[(nibbles[e / 2] >> ((e % 2) * 4)) & 0xf];
            row_fn(acc + row * batch, act, w, shift, lo, hi, batch);
        }
    }
}

void
macBlockScalar(const MacBlock &block)
{
    macBlockWith(macRowScalar, block);
}

#if defined(EIE_KERNEL_X86)

__attribute__((target("sse4.1"))) void
macBlockSse41(const MacBlock &block)
{
    macBlockWith(macRowSse41, block);
}

__attribute__((target("avx512f,avx512bw"))) void
macBlockAvx512(const MacBlock &block)
{
    macBlockWith(macRowAvx512, block);
}

__attribute__((target("avx2"))) void
macBlockAvx2(const MacBlock &block)
{
    macBlockWith(macRowAvx2, block);
}

#endif // EIE_KERNEL_X86

/** The dispatched MAC row and block kernels and the ISA label BENCH
 *  files stamp for them — one selection site, so they cannot
 *  drift. */
struct MacRowKernel
{
    MacRowFn fn;
    MacBlockFn block;
    const char *isa;
};

/** Runtime ISA dispatch, decided once. */
MacRowKernel
pickMacRow()
{
#if defined(EIE_KERNEL_X86)
    // avx512bw implies avx512f on every shipped part, but probe what
    // the lanes actually require; boxes without AVX-512 fall through
    // to the unchanged paths below (skip, not fail).
    if (__builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512f"))
        return {macRowAvx512, macBlockAvx512, "avx512"};
    if (__builtin_cpu_supports("avx2"))
        return {macRowAvx2, macBlockAvx2, "avx2"};
    if (__builtin_cpu_supports("sse4.1"))
        return {macRowSse41, macBlockSse41, "sse4.1"};
#endif
    return {macRowScalar, macBlockScalar, "scalar"};
}

const MacRowKernel g_mac_row_kernel = pickMacRow();
const MacRowFn g_mac_row = g_mac_row_kernel.fn;
const MacBlockFn g_mac_block = g_mac_row_kernel.block;

// ------------------------------------------------- slice inner loops

/** Sweep one SoA stream over the gathered sparse panel (the scalar
 *  reference loop; also walks the slice-fused stream). */
void
runStreamReference(const SliceStream &stream,
                   const ActivationPanel &panel, std::size_t batch,
                   std::int64_t *acc, const FixedFormat &weight_fmt,
                   const FixedFormat &act_fmt)
{
    const std::uint32_t *rows = stream.rows.data();
    const std::int32_t *weights = stream.weights.data();
    const std::size_t cols = stream.col_ptr.size() - 1;
    for (std::size_t j = 0; j < cols; ++j) {
        const std::uint32_t n_active = panel.count[j];
        if (n_active == 0)
            continue;
        const std::uint32_t e_begin = stream.col_ptr[j];
        const std::uint32_t e_end = stream.col_ptr[j + 1];
        if (e_begin == e_end)
            continue;
        const std::uint32_t *frames = &panel.frame[j * batch];
        const std::int64_t *values = &panel.value[j * batch];
        for (std::uint32_t e = e_begin; e < e_end; ++e) {
            const std::int64_t w = weights[e];
            std::int64_t *acc_row =
                acc + static_cast<std::size_t>(rows[e]) * batch;
            for (std::uint32_t t = 0; t < n_active; ++t) {
                acc_row[frames[t]] = macFixed(
                    acc_row[frames[t]], w, values[t], weight_fmt,
                    act_fmt);
            }
        }
    }
}

/**
 * Sweep one SoA stream over the per-frame nonzero queues (the
 * actsparse variant's loop). Frames are independent accumulator
 * columns, and within a frame the queue visits columns ascending with
 * at most one stream entry per (row, column) — the exact
 * per-accumulator update order of the reference sweep, so the
 * saturating MAC sequence is preserved bit-for-bit. Only the
 * col_ptr extents of nonzero columns are ever touched.
 */
void
runStreamActSparse(const SliceStream &stream, const QueuePanel &panel,
                   std::size_t batch, std::int64_t *acc,
                   const FixedFormat &weight_fmt,
                   const FixedFormat &act_fmt)
{
    const std::uint32_t *rows = stream.rows.data();
    const std::int32_t *weights = stream.weights.data();
    const std::uint32_t *col_ptr = stream.col_ptr.data();
    if (batch == 1) {
        // The latency path the variant exists for: one accumulator
        // per row (no *batch indexing) and the macFixed() shift and
        // saturation bounds hoisted out of the queue walk. The
        // arithmetic is macFixed() verbatim, so bit-exactness with
        // the general loop (and the reference oracle) is preserved.
        const int shift =
            2 * static_cast<int>(weight_fmt.fracBits) -
            static_cast<int>(act_fmt.fracBits);
        const std::int64_t lo = act_fmt.minRaw();
        const std::int64_t hi = act_fmt.maxRaw();
        const std::uint32_t q_end = panel.begin[1];
        if (stream.hasPacked()) {
            // Streams whose row indices and weight raws fit 16 bits
            // carry a packed (row << 16 | weight) mirror: one 4-byte
            // load per entry instead of two, halving the stream
            // bandwidth the walk is bound by.
            const std::uint32_t *packed = stream.packed.data();
            for (std::uint32_t q = 0; q < q_end; ++q) {
                const std::uint32_t j = panel.col[q];
                const std::int64_t a = panel.value[q];
                const std::uint32_t e_end = col_ptr[j + 1];
                for (std::uint32_t e = col_ptr[j]; e < e_end; ++e) {
                    const std::uint32_t entry = packed[e];
                    const std::int64_t w = static_cast<std::int16_t>(
                        entry & 0xffffu);
                    const std::int64_t product = w * a;
                    const std::int64_t aligned =
                        shift >= 0 ? product >> shift
                                   : product << -shift;
                    std::int64_t sum = acc[entry >> 16] + aligned;
                    sum = sum > hi ? hi : sum;
                    sum = sum < lo ? lo : sum;
                    acc[entry >> 16] = sum;
                }
            }
            return;
        }
        for (std::uint32_t q = 0; q < q_end; ++q) {
            const std::uint32_t j = panel.col[q];
            const std::int64_t a = panel.value[q];
            const std::uint32_t e_end = col_ptr[j + 1];
            for (std::uint32_t e = col_ptr[j]; e < e_end; ++e) {
                const std::int64_t product = weights[e] * a;
                const std::int64_t aligned = shift >= 0
                                                 ? product >> shift
                                                 : product << -shift;
                std::int64_t sum = acc[rows[e]] + aligned;
                sum = sum > hi ? hi : sum;
                sum = sum < lo ? lo : sum;
                acc[rows[e]] = sum;
            }
        }
        return;
    }
    for (std::size_t b = 0; b < batch; ++b) {
        const std::uint32_t q_end = panel.begin[b + 1];
        for (std::uint32_t q = panel.begin[b]; q < q_end; ++q) {
            const std::uint32_t j = panel.col[q];
            const std::int64_t a = panel.value[q];
            const std::uint32_t e_end = col_ptr[j + 1];
            for (std::uint32_t e = col_ptr[j]; e < e_end; ++e) {
                std::int64_t &slot =
                    acc[static_cast<std::size_t>(rows[e]) * batch + b];
                slot = macFixed(slot, weights[e], a, weight_fmt,
                                act_fmt);
            }
        }
    }
}

/** Sweep one SoA stream over the dense panel with the SIMD MAC row
 *  kernel (the vector variant's loop). */
void
runStreamVector(const SliceStream &stream, const DensePanel &panel,
                std::size_t batch, std::int32_t *acc, int shift,
                std::int32_t lo, std::int32_t hi)
{
    const std::uint32_t *rows = stream.rows.data();
    const std::int32_t *weights = stream.weights.data();
    const std::size_t cols = stream.col_ptr.size() - 1;
    for (std::size_t j = 0; j < cols; ++j) {
        if (!panel.active[j])
            continue;
        const std::uint32_t e_begin = stream.col_ptr[j];
        const std::uint32_t e_end = stream.col_ptr[j + 1];
        if (e_begin == e_end)
            continue;
        const std::int32_t *act = &panel.value[j * batch];
        for (std::uint32_t e = e_begin; e < e_end; ++e)
            g_mac_row(acc + static_cast<std::size_t>(rows[e]) * batch,
                      act, weights[e], shift, lo, hi, batch);
    }
}

// ------------------------------------------------------ tile drivers

/** Drain one row batch: non-linearity, then commit per frame. */
template <typename AccT>
void
drainRowBatch(const CompiledLayer &layer, const AccT *acc,
              std::size_t row_begin, std::size_t row_end,
              std::size_t batch, Batch &outputs)
{
    for (std::size_t r = 0; r < row_end - row_begin; ++r) {
        const AccT *acc_row = acc + r * batch;
        for (std::size_t b = 0; b < batch; ++b) {
            std::int64_t value = acc_row[b];
            switch (layer.nonlin) {
              case nn::Nonlinearity::ReLU:
                value = reluRaw(value);
                break;
              case nn::Nonlinearity::None:
                break;
              default:
                fatal("the accelerator only applies ReLU or None; "
                      "other nonlinearities run on the host");
            }
            outputs[b][row_begin + r] = value;
        }
    }
}

/**
 * The shared tile driver of every variant: accumulators zero per row
 * batch and persist across passes — frame-major per row so a PE's
 * writes stay in its own rows — and each tile gathers its panel once
 * before @p tile_fn sweeps it into @p acc.
 */
template <typename AccT, typename Panel, typename TileFn>
void
executeTiles(const CompiledLayer &layer, const Batch &inputs,
             Batch &outputs, Panel &panel, const TileFn &tile_fn)
{
    const std::size_t batch = inputs.size();
    std::vector<AccT> acc;
    for (const auto &batch_tiles : layer.tiles) {
        panic_if(batch_tiles.empty(), "row batch with no tiles");
        const std::size_t row_begin = batch_tiles.front().row_begin;
        const std::size_t row_end = batch_tiles.front().row_end;
        acc.assign((row_end - row_begin) * batch, 0);
        for (const CompiledTile &tile : batch_tiles) {
            panel.gather(inputs, tile.col_begin, tile.col_end);
            tile_fn(tile, acc.data());
        }
        drainRowBatch(layer, acc.data(), row_begin, row_end, batch,
                      outputs);
    }
}

/** Run @p fn over indices [0, @p count), pooled when available. The
 *  one place that decides how a tile's work spreads over the pool. */
template <typename Fn>
void
forEachIndex(std::size_t count, WorkerPool *pool, const Fn &fn)
{
    if (pool && pool->threads() > 1)
        pool->parallelFor(count, fn);
    else
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
}

/** The reference and fused variants: int64 accumulators, sparse
 *  gather panel; fused walks one merged stream serially. */
void
executeSparse(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, bool fused, Batch &outputs)
{
    const std::size_t batch = inputs.size();
    ActivationPanel panel;
    executeTiles<std::int64_t>(
        layer, inputs, outputs, panel,
        [&](const CompiledTile &tile, std::int64_t *acc) {
            if (fused) {
                runStreamReference(tile.fused, panel, batch, acc,
                                   layer.weight_format,
                                   layer.act_format);
                return;
            }
            forEachIndex(tile.slices.size(), pool, [&](std::size_t k) {
                runStreamReference(tile.slices[k].stream, panel, batch,
                                   acc, layer.weight_format,
                                   layer.act_format);
            });
        });
}

/** The actsparse variant: int64 accumulators, per-frame nonzero
 *  queues; per-slice parallelism as in the reference loop (PE rows
 *  are disjoint), and a single-thread run walks the slice-fused
 *  stream when the layer carries one (one merged column extent
 *  instead of one per PE). */
void
executeActSparse(const CompiledLayer &layer, const Batch &inputs,
                 WorkerPool *pool, Batch &outputs)
{
    const std::size_t batch = inputs.size();
    const unsigned threads = pool ? pool->threads() : 1;
    const bool fused = threads <= 1 && layer.has_fused_stream;
    QueuePanel panel;
    executeTiles<std::int64_t>(
        layer, inputs, outputs, panel,
        [&](const CompiledTile &tile, std::int64_t *acc) {
            if (fused) {
                runStreamActSparse(tile.fused, panel, batch, acc,
                                   layer.weight_format,
                                   layer.act_format);
                return;
            }
            forEachIndex(tile.slices.size(), pool, [&](std::size_t k) {
                runStreamActSparse(tile.slices[k].stream, panel, batch,
                                   acc, layer.weight_format,
                                   layer.act_format);
            });
        });
}

/** The vector variant: int32 accumulators, dense panel, SIMD MAC
 *  rows; per-slice parallelism as in the reference loop. */
void
executeVector(const CompiledLayer &layer, const Batch &inputs,
              WorkerPool *pool, Batch &outputs)
{
    const std::size_t batch = inputs.size();
    const int shift =
        2 * static_cast<int>(layer.weight_format.fracBits) -
        static_cast<int>(layer.act_format.fracBits);
    const auto lo = static_cast<std::int32_t>(layer.act_format.minRaw());
    const auto hi = static_cast<std::int32_t>(layer.act_format.maxRaw());

    DensePanel panel;
    executeTiles<std::int32_t>(
        layer, inputs, outputs, panel,
        [&](const CompiledTile &tile, std::int32_t *acc) {
            forEachIndex(tile.slices.size(), pool, [&](std::size_t k) {
                runStreamVector(tile.slices[k].stream, panel, batch,
                                acc, shift, lo, hi);
            });
        });
}

/**
 * Whether every activation is a valid act_format raw — the bound
 * vectorEligible()'s 32-bit-lane arithmetic actually relies on.
 * Out-of-format inputs (possible from an unvalidated remote client:
 * the wire protocol carries raw int64 activations verbatim) must not
 * crash or silently wrap; runBatch demotes them to the reference
 * loop, which computes the same defined int64 semantics as before
 * the vector variant existed.
 */
bool
withinActFormat(const Batch &inputs, const FixedFormat &fmt)
{
    const std::int64_t lo = fmt.minRaw();
    const std::int64_t hi = fmt.maxRaw();
    for (const auto &input : inputs)
        for (const std::int64_t a : input)
            if (a < lo || a > hi)
                return false;
    return true;
}

/**
 * Per-pass activation panel of the compressed variant's int64 path:
 * the tile columns with at least one nonzero frame, ascending — the
 * only columns the fused walk expands and MACs — and each one's
 * nonzero (frame, value) pairs. At batch 1 it is exactly the
 * actsparse queue.
 */
struct ColumnPanel
{
    std::vector<std::uint32_t> col;   ///< tile-relative column
    std::vector<std::uint32_t> begin; ///< column q: [begin[q], begin[q+1])
    std::vector<std::uint32_t> frame; ///< frame index of each slot
    std::vector<std::int64_t> value;  ///< activation value of the slot

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        col.clear();
        frame.clear();
        value.clear();
        begin.assign(1, 0);
        for (std::size_t j = col_begin; j < col_end; ++j) {
            for (std::size_t b = 0; b < inputs.size(); ++b) {
                const std::int64_t a = inputs[b][j];
                if (a == 0)
                    continue;
                frame.push_back(static_cast<std::uint32_t>(b));
                value.push_back(a);
            }
            if (frame.size() > begin.back()) {
                col.push_back(static_cast<std::uint32_t>(j - col_begin));
                begin.push_back(static_cast<std::uint32_t>(frame.size()));
            }
        }
    }
};

/** DensePanel plus its nonzero columns, ascending, for the fused
 *  walk's vector path. */
struct DenseColumnPanel : DensePanel
{
    std::vector<std::uint32_t> col;

    void
    gather(const Batch &inputs, std::size_t col_begin,
           std::size_t col_end)
    {
        DensePanel::gather(inputs, col_begin, col_end);
        col.clear();
        for (std::size_t j = 0; j < active.size(); ++j)
            if (active[j])
                col.push_back(static_cast<std::uint32_t>(j));
    }
};

/**
 * The fused walk of one tile: PE slices in pairs, each pair's
 * bitstreams decoded block by block in lockstep (SliceWalker) and
 * every block handed to @p consume(stream, k, block, cursor) while
 * it is cache-hot. @p cursor is the slice's position in the panel's
 * nonzero-column list, carried across its blocks. Pairs are
 * disjoint PE slices, hence disjoint accumulator rows, so pooled
 * pairs never race. Adds the pairs' decode time — table builds plus
 * each block's entropy walk and range check, the clock read once at
 * each decode/MAC boundary of a block pair — to @p decode_ns.
 */
template <typename Consume>
void
walkTile(const CompiledLayer &layer, const CompiledTile &tile,
         WorkerPool *pool, std::atomic<std::int64_t> &decode_ns,
         const Consume &consume)
{
    using Clock = std::chrono::steady_clock;
    const std::size_t slices = tile.slices.size();
    const auto run_pair = [&](std::size_t pair) {
        const std::size_t ka = 2 * pair;
        const std::size_t kb = ka + 1;
        for (std::size_t k = ka; k < std::min(kb + 1, slices); ++k)
            tile.slices[k].compressed.checkFits(SliceSlot{
                tile.col_end - tile.col_begin, layer.n_pe,
                static_cast<std::uint32_t>(k), tile.slices[k].local_rows,
                layer.weight_format.minRaw(),
                layer.weight_format.maxRaw()});
        const CompressedSliceStream &sa = tile.slices[ka].compressed;
        auto start = Clock::now();
        SliceWalker a(sa);
        std::optional<SliceWalker> b;
        if (kb < slices)
            b.emplace(tile.slices[kb].compressed);
        std::size_t cursor_a = 0;
        std::size_t cursor_b = 0;
        Clock::duration decode{};
        while (!a.done() || (b && !b->done())) {
            SliceWalker::advance(a, b ? &*b : nullptr);
            const auto decoded = Clock::now();
            decode += decoded - start;
            consume(sa, ka, a.block(), cursor_a);
            if (b)
                consume(tile.slices[kb].compressed, kb, b->block(),
                        cursor_b);
            start = Clock::now();
        }
        decode_ns.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(decode)
                .count(),
            std::memory_order_relaxed);
    };
    forEachIndex((slices + 1) / 2, pool, run_pair);
}

/**
 * The compressed variant: the fused compressed kernel. Each tile
 * slice's bitstream is walked one column block at a time and each
 * block feeds the saturating MAC right away — the SIMD dense-batch
 * MAC row from batch 2 when the formats and inputs allow it (the
 * vector variant's 32-bit-lane gates), the int64 scalar MAC at batch
 * 1 and everywhere else. Only columns with a nonzero frame are
 * expanded and MACed; every column is still entropy-walked (the
 * bitstream is serial) and range-checked (SliceWalker checks whole
 * blocks), so a corrupt row throws whether or not its activation is
 * zero. Per accumulator the MAC order is columns ascending, passes
 * ascending — the reference sequence — so outputs are bit-exact with
 * every other variant. The walk's decode time is reported through
 * @p decode_us_out (see DispatchInfo::decode_us).
 */
void
executeCompressed(const CompiledLayer &layer, const Batch &inputs,
                  WorkerPool *pool, Batch &outputs,
                  double *decode_us_out)
{
    const std::size_t batch = inputs.size();
    const std::uint64_t n_pe = layer.n_pe;
    std::atomic<std::int64_t> decode_ns{0};
    const int shift = 2 * static_cast<int>(layer.weight_format.fracBits) -
        static_cast<int>(layer.act_format.fracBits);

    // SIMD lanes from batch 2: the walk is shared by the batch, so
    // the per-frame int64 MAC is all that batching adds, and the
    // masked-tail lanes beat it (the decoded variants' Auto switches
    // only at kVectorAutoBatch). Batch 1 keeps the scalar MAC.
    if (vectorEligible(layer) && batch >= 2 &&
        withinActFormat(inputs, layer.act_format)) {
        const auto lo =
            static_cast<std::int32_t>(layer.act_format.minRaw());
        const auto hi =
            static_cast<std::int32_t>(layer.act_format.maxRaw());
        DenseColumnPanel panel;
        executeTiles<std::int32_t>(
            layer, inputs, outputs, panel,
            [&](const CompiledTile &tile, std::int32_t *acc) {
                walkTile(layer, tile, pool, decode_ns,
                         [&](const CompressedSliceStream &stream,
                             std::size_t k, const DecodedBlock &block,
                             std::size_t &q) {
                    const std::size_t q_begin = q;
                    while (q < panel.col.size() &&
                           panel.col[q] < block.col_end)
                        ++q;
                    g_mac_block(MacBlock{acc, batch, panel.value.data(),
                                         panel.col.data() + q_begin,
                                         q - q_begin,
                                         stream.col_ptr.data(),
                                         block.prefix,
                                         block.entry_begin,
                                         stream.nibbles.data(),
                                         stream.weight_lut.data(), n_pe,
                                         k, shift, lo, hi});
                });
            });
    } else {
        // The int64 path: macFixed() arithmetic with its shift and
        // saturation bounds hoisted, one slot per nonzero (column,
        // frame). One loop body, instantiated twice: at batch 1 every
        // column has exactly one slot, frame 0, so the frame loop and
        // its indirection drop out (measured ~10% of the Alex-6/7/8
        // batch-1 sweep).
        const std::int64_t lo = layer.act_format.minRaw();
        const std::int64_t hi = layer.act_format.maxRaw();
        ColumnPanel panel;
        const auto run = [&](auto one_frame) {
            constexpr bool kOneFrame = decltype(one_frame)::value;
            executeTiles<std::int64_t>(
                layer, inputs, outputs, panel,
                [&](const CompiledTile &tile, std::int64_t *acc) {
                    walkTile(layer, tile, pool, decode_ns,
                             [&](const CompressedSliceStream &stream,
                                 std::size_t k, const DecodedBlock &block,
                                 std::size_t &q) {
                        // Locals, not captures: the int64 accumulator
                        // stores could alias them and force reloads.
                        const std::uint32_t *cp = stream.col_ptr.data();
                        const std::uint8_t *nib = stream.nibbles.data();
                        const std::int32_t *lut =
                            stream.weight_lut.data();
                        const std::uint32_t *frame = panel.frame.data();
                        const std::int64_t *value = panel.value.data();
                        const std::uint64_t stride = n_pe;
                        const std::size_t lanes = kOneFrame ? 1 : batch;
                        const auto mac = [sh = shift, lo, hi](
                                             std::int64_t sum,
                                             std::int64_t w,
                                             std::int64_t a) {
                            const std::int64_t product = w * a;
                            sum += sh >= 0 ? product >> sh
                                           : product << -sh;
                            return sum > hi ? hi : sum < lo ? lo : sum;
                        };
                        for (; q < panel.col.size() &&
                             panel.col[q] < block.col_end;
                             ++q) {
                            const std::uint32_t j = panel.col[q];
                            const std::uint32_t f_begin = panel.begin[q];
                            const std::uint32_t f_end =
                                panel.begin[q + 1];
                            [[maybe_unused]] const std::int64_t a =
                                value[f_begin];
                            const std::uint64_t *pre = block.prefix +
                                (cp[j] - block.entry_begin);
                            const std::uint64_t base = pre[0] + 1;
                            for (std::uint32_t e = cp[j]; e < cp[j + 1];
                                 ++e) {
                                std::int64_t *acc_row = acc +
                                    ((*++pre - base) * stride + k) *
                                        lanes;
                                const std::int64_t w =
                                    lut[(nib[e / 2] >> ((e % 2) * 4)) &
                                        0xf];
                                if constexpr (kOneFrame) {
                                    *acc_row = mac(*acc_row, w, a);
                                } else {
                                    for (std::uint32_t f = f_begin;
                                         f < f_end; ++f)
                                        acc_row[frame[f]] =
                                            mac(acc_row[frame[f]], w,
                                                value[f]);
                                }
                            }
                        }
                    });
                });
        };
        if (batch == 1)
            run(std::true_type{});
        else
            run(std::false_type{});
    }
    if (decode_us_out)
        *decode_us_out =
            static_cast<double>(
                decode_ns.load(std::memory_order_relaxed)) /
            1000.0;
}

} // namespace

const char *
simdIsaName()
{
    return g_mac_row_kernel.isa;
}

double
probeActivationDensity(const Batch &inputs)
{
    // Sampling cap: above it the scan strides so the probe touches at
    // most ~kProbeCap elements however large the batch is.
    constexpr std::size_t kProbeCap = 4096;
    std::size_t total = 0;
    for (const auto &input : inputs)
        total += input.size();
    if (total == 0)
        return -1.0;
    const std::size_t stride =
        total <= kProbeCap ? 1 : (total + kProbeCap - 1) / kProbeCap;
    std::size_t sampled = 0;
    std::size_t nonzero = 0;
    for (std::size_t b = 0; b < inputs.size(); ++b) {
        const auto &input = inputs[b];
        // Stagger the start per frame so a strided scan does not keep
        // hitting the same columns of every frame.
        for (std::size_t i = b % stride; i < input.size(); i += stride) {
            ++sampled;
            nonzero += input[i] != 0;
        }
    }
    if (sampled == 0)
        return -1.0;
    return static_cast<double>(nonzero) / static_cast<double>(sampled);
}

Batch
runBatch(const CompiledLayer &layer, const Batch &inputs,
         WorkerPool *pool, KernelVariant variant, DispatchInfo *dispatch)
{
    const std::size_t batch = inputs.size();
    panic_if(!layer.has_host_stream && !layer.has_compressed_stream,
             "layer '%s' compiled without the host kernel arrays "
             "(CompileOptions::host_stream) or a compressed stream",
             layer.name.c_str());
    for (const auto &input : inputs)
        panic_if(input.size() != layer.input_size,
                 "input length %zu != compiled %zu", input.size(),
                 layer.input_size);

    Batch outputs(batch);
    for (auto &output : outputs)
        output.assign(layer.output_size, 0);
    if (batch == 0) {
        if (dispatch)
            *dispatch = DispatchInfo{};
        return outputs;
    }

    const unsigned threads = pool ? pool->threads() : 1;
    const double act_density = probeActivationDensity(inputs);
    KernelVariant resolved =
        resolveKernelVariant(variant, layer, batch, threads,
                             act_density);
    if (resolved == KernelVariant::Vector &&
        !withinActFormat(inputs, layer.act_format))
        resolved = KernelVariant::Reference;
    double decode_us = 0.0;
    switch (resolved) {
      case KernelVariant::Vector:
        executeVector(layer, inputs, pool, outputs);
        break;
      case KernelVariant::Fused:
        executeSparse(layer, inputs, pool, /*fused=*/true, outputs);
        break;
      case KernelVariant::ActSparse:
        executeActSparse(layer, inputs, pool, outputs);
        break;
      case KernelVariant::Compressed:
        executeCompressed(layer, inputs, pool, outputs, &decode_us);
        break;
      case KernelVariant::Reference:
        executeSparse(layer, inputs, pool, /*fused=*/false, outputs);
        break;
      case KernelVariant::Auto:
        panic("resolveKernelVariant returned Auto");
    }
    if (dispatch) {
        dispatch->variant = resolved;
        dispatch->act_density = act_density;
        dispatch->decode_us = decode_us;
    }
    return outputs;
}

} // namespace eie::core::kernel
