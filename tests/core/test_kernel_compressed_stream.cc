/**
 * @file
 * Compressed-stream codec tests: every compiled slice round-trips
 * through CompressedSliceStream::encode/decode bit for bit, targeted
 * malformed streams throw CompressedStreamError with the documented
 * reason, and seeded fuzz (mutations of valid streams plus
 * pure-garbage streams) must decode-or-throw the typed error — never
 * crash, hang, read out of bounds, or trip a sanitizer. This is the
 * decoder's survival property against corrupt model bytes, mirroring
 * the wire codec's garbage-frame fuzz in tests/serve/test_wire.cc;
 * tools/check.sh runs it under ASan.
 *
 * Every fuzzed stream also runs through the fused compressed kernel
 * (runBatch with KernelVariant::Compressed, batch 1 and batch 9): it
 * must throw exactly when the unfused path (checkFits + decode())
 * does, and otherwise match the reference sweep of the decoded
 * stream bit for bit. The fused walk skips the MAC of zero-activation
 * columns, never their range check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/functional.hh"
#include "core/kernel/compiled_layer.hh"
#include "core/kernel/compressed_stream.hh"
#include "core/kernel/executor.hh"
#include "core/kernel/worker_pool.hh"
#include "core/plan.hh"
#include "helpers.hh"

namespace {

using namespace eie;

using core::kernel::Batch;
using core::kernel::CompiledLayer;
using core::kernel::CompressedSliceStream;
using core::kernel::CompressedStreamError;
using core::kernel::KernelVariant;
using core::kernel::SliceSlot;
using core::kernel::SliceStream;

/** Every compressed tile slice of a representative layer (built side
 *  by side with the decoded streams so the round-trip has its
 *  oracle). */
std::vector<const core::kernel::CompiledSlice *>
compiledSlices(const core::kernel::CompiledLayer &layer)
{
    std::vector<const core::kernel::CompiledSlice *> slices;
    for (const auto &batch_tiles : layer.tiles)
        for (const auto &tile : batch_tiles)
            for (const auto &slice : tile.slices)
                slices.push_back(&slice);
    return slices;
}

core::kernel::CompiledLayer
compileWithCompressed(unsigned seed, double density = 0.25)
{
    core::EieConfig config;
    config.n_pe = 4;
    const auto layer =
        test::randomCompressedLayer(96, 64, density, 4, seed);
    const auto plan =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    core::kernel::CompileOptions options;
    options.compressed_stream = true;
    return core::kernel::CompiledLayer::compile(plan, config, options);
}

TEST(CompressedStream, RoundTripsEveryCompiledSlice)
{
    for (const unsigned seed : {7u, 8u}) {
        const auto compiled = compileWithCompressed(seed);
        ASSERT_TRUE(compiled.has_compressed_stream);
        ASSERT_TRUE(compiled.has_host_stream);

        SliceStream scratch;
        for (const auto *slice : compiledSlices(compiled)) {
            slice->compressed.decode(scratch);
            EXPECT_EQ(scratch.rows, slice->stream.rows);
            EXPECT_EQ(scratch.weights, slice->stream.weights);
            EXPECT_EQ(scratch.col_ptr, slice->stream.col_ptr);
            // The decoded form pays ~12 bytes/entry; the compressed
            // one must undercut it on any non-tiny slice.
            const std::size_t decoded_bytes =
                slice->stream.rows.size() * sizeof(std::uint32_t) +
                slice->stream.weights.size() * sizeof(std::int32_t) +
                slice->stream.col_ptr.size() * sizeof(std::uint32_t) +
                slice->stream.packed.size() * sizeof(std::uint32_t);
            if (slice->compressed.entry_count > 64) {
                EXPECT_LT(slice->compressed.byteSize(),
                          decoded_bytes);
            }
        }
    }
}

TEST(CompressedStream, TargetedMalformationsThrowTyped)
{
    const auto compiled = compileWithCompressed(7);
    const auto slices = compiledSlices(compiled);
    ASSERT_FALSE(slices.empty());
    const CompressedSliceStream &clean = slices.front()->compressed;
    ASSERT_GT(clean.entry_count, 0u);
    SliceStream scratch;

    {
        CompressedSliceStream bad = clean;
        bad.n_pe = 0;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.col_ptr.clear();
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.col_ptr.front() = 1; // must start at 0
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.col_ptr.back() = clean.entry_count + 1;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.nibbles.pop_back();
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Truncated bitstream: the cursor runs dry mid-symbol.
        CompressedSliceStream bad = clean;
        bad.delta_bit_count = bad.delta_bit_count / 2;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        CompressedSliceStream bad = clean;
        bad.delta_bit_count = bad.delta_bits.size() * 8 + 1;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Over-subscribed code-length table: more 1-bit codewords
        // than the code space holds.
        CompressedSliceStream bad = clean;
        bad.code_lengths.fill(1);
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Entries but no codewords at all.
        CompressedSliceStream bad = clean;
        bad.code_lengths.fill(0);
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
    {
        // Rows walk past the slice's range.
        CompressedSliceStream bad = clean;
        bad.local_rows = 1;
        try {
            bad.decode(scratch);
        } catch (const CompressedStreamError &) {
            // Expected for any slice with a row past 0; a 1-row
            // decode success would also be in-bounds.
        }
    }
    {
        // Row range would overflow 32-bit global row indices.
        CompressedSliceStream bad = clean;
        bad.n_pe = 0xffffffffu;
        bad.pe = 0xfffffffeu;
        EXPECT_THROW(bad.decode(scratch), CompressedStreamError);
    }
}

/** splitmix64: the deterministic byte source of the fuzz tests. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The tile slot slice @p k of tile (0, 0) of @p layer sits in. */
SliceSlot
slotOf(const CompiledLayer &layer, std::size_t k)
{
    const auto &tile = layer.tiles[0][0];
    return SliceSlot{tile.col_end - tile.col_begin, layer.n_pe,
                     static_cast<std::uint32_t>(k),
                     tile.slices[k].local_rows,
                     layer.weight_format.minRaw(),
                     layer.weight_format.maxRaw()};
}

/** Batch-1 and batch-9 frames at the paper's 35% activations: zero
 *  columns for the fused walk to skip, and both MAC paths (the
 *  int64 latency loop and the SIMD batch loop). */
std::vector<Batch>
fuzzBatches(const CompiledLayer &layer)
{
    core::EieConfig config;
    config.n_pe = layer.n_pe;
    const core::FunctionalModel model(config);
    std::vector<Batch> batches;
    for (const std::size_t batch : {1u, 9u}) {
        Batch frames;
        for (std::size_t b = 0; b < batch; ++b)
            frames.push_back(model.quantizeInput(test::randomActivations(
                layer.input_size, 0.35, 900 + 11 * b)));
        batches.push_back(std::move(frames));
    }
    return batches;
}

/**
 * Put @p candidate at slice @p k of tile (0, 0) of @p layer (a
 * decoded + compressed dual form) and run it down both paths. The
 * unfused path throws when decode() or checkFits throws, each run on
 * its own; the fused path is runBatch with the compressed variant.
 * Each must throw CompressedStreamError exactly when the other
 * does — anything else (a crash, a sanitizer trip, another exception
 * type) fails the test — and when neither throws, the fused outputs
 * must equal the reference sweep over the decoded stream. @p layer
 * is restored before returning.
 */
void
expectSameVerdicts(CompiledLayer &layer, std::size_t k,
                   const CompressedSliceStream &candidate,
                   const std::vector<Batch> &batches)
{
    auto &slice = layer.tiles[0][0].slices[k];
    // decode() runs on every candidate, fitting or not, so the
    // walker's own header and structure checks stay fuzzed.
    SliceStream decoded;
    bool unfused_threw = false;
    try {
        candidate.decode(decoded);
    } catch (const CompressedStreamError &) {
        unfused_threw = true;
    }
    try {
        candidate.checkFits(slotOf(layer, k));
    } catch (const CompressedStreamError &) {
        unfused_threw = true;
    }

    const CompressedSliceStream clean_compressed = slice.compressed;
    const SliceStream clean_stream = slice.stream;
    slice.compressed = candidate;
    if (!unfused_threw)
        slice.stream = decoded;
    for (const Batch &frames : batches) {
        bool fused_threw = false;
        Batch fused;
        try {
            fused = core::kernel::runBatch(layer, frames, nullptr,
                                           KernelVariant::Compressed);
        } catch (const CompressedStreamError &) {
            fused_threw = true;
        }
        EXPECT_EQ(fused_threw, unfused_threw)
            << "batch " << frames.size() << ", slice " << k;
        if (!fused_threw && !unfused_threw) {
            EXPECT_EQ(fused,
                      core::kernel::runBatch(layer, frames, nullptr,
                                             KernelVariant::Reference))
                << "batch " << frames.size() << ", slice " << k;
        }
    }
    slice.compressed = clean_compressed;
    slice.stream = clean_stream;
}

TEST(CompressedStreamFuzz, SeededMutationsOfValidStreamsFailTyped)
{
    // Deterministic mutation fuzz over every field a corrupt model
    // file could damage: bit flips and byte stomps in the nibble and
    // delta arrays, stomped column pointers and code lengths,
    // perturbed scalar header fields, truncations and extensions.
    // Seeded, so a failure reproduces exactly.
    std::uint64_t rng = 0xc0dec0dec0dec0deull;
    auto compiled = compileWithCompressed(7);
    ASSERT_EQ(compiled.tiles.size(), 1u);
    ASSERT_EQ(compiled.tiles[0].size(), 1u);
    const auto batches = fuzzBatches(compiled);
    SliceStream scratch;

    for (std::size_t k = 0; k < compiled.n_pe; ++k) {
        const CompressedSliceStream clean =
            compiled.tiles[0][0].slices[k].compressed;
        ASSERT_NO_THROW(clean.decode(scratch));

        for (int round = 0; round < 200; ++round) {
            CompressedSliceStream mutated = clean;
            const unsigned edits =
                1 + static_cast<unsigned>(splitmix(rng) % 3);
            for (unsigned e = 0; e < edits; ++e) {
                switch (splitmix(rng) % 8) {
                  case 0: // flip one bit of the delta stream
                    if (!mutated.delta_bits.empty())
                        mutated.delta_bits[splitmix(rng) %
                                           mutated.delta_bits
                                               .size()] ^=
                            static_cast<std::uint8_t>(
                                1u << (splitmix(rng) % 8));
                    break;
                  case 1: // stomp one nibble byte
                    if (!mutated.nibbles.empty())
                        mutated.nibbles[splitmix(rng) %
                                        mutated.nibbles.size()] =
                            static_cast<std::uint8_t>(splitmix(rng));
                    break;
                  case 2: // stomp one column pointer
                    mutated.col_ptr[splitmix(rng) %
                                    mutated.col_ptr.size()] =
                        static_cast<std::uint32_t>(
                            splitmix(rng) % (2 * clean.entry_count +
                                             2));
                    break;
                  case 3: // stomp one code length
                    mutated.code_lengths[splitmix(rng) % 256] =
                        static_cast<std::uint8_t>(splitmix(rng) % 40);
                    break;
                  case 4: // perturb a scalar header field
                    switch (splitmix(rng) % 4) {
                      case 0:
                        mutated.local_rows = static_cast<
                            std::uint32_t>(splitmix(rng) % 200);
                        break;
                      case 1:
                        mutated.delta_bit_count =
                            splitmix(rng) %
                            (8 * mutated.delta_bits.size() + 9);
                        break;
                      case 2:
                        mutated.pe = static_cast<std::uint32_t>(
                            splitmix(rng));
                        break;
                      default:
                        mutated.n_pe = static_cast<std::uint32_t>(
                            splitmix(rng) % 9);
                        break;
                    }
                    break;
                  case 5: // truncate the delta stream
                    if (!mutated.delta_bits.empty()) {
                        mutated.delta_bits.resize(
                            splitmix(rng) %
                            mutated.delta_bits.size());
                        mutated.delta_bit_count = std::min<
                            std::uint64_t>(
                            mutated.delta_bit_count,
                            mutated.delta_bits.size() * 8);
                    }
                    break;
                  case 6: // append trailing garbage bits
                    for (std::uint64_t n = 1 + splitmix(rng) % 8;
                         n > 0; --n)
                        mutated.delta_bits.push_back(
                            static_cast<std::uint8_t>(splitmix(rng)));
                    mutated.delta_bit_count =
                        mutated.delta_bits.size() * 8;
                    break;
                  default: // truncate the column pointers
                    if (mutated.col_ptr.size() > 1)
                        mutated.col_ptr.resize(
                            1 + splitmix(rng) %
                                    mutated.col_ptr.size());
                    break;
                }
            }
            expectSameVerdicts(compiled, k, mutated, batches);
        }
    }
}

TEST(CompressedStreamFuzz, PureGarbageStreamsFailTyped)
{
    // Streams that were never an encode(): every field filled from
    // the deterministic byte source, sizes bounded so a "success"
    // cannot allocate absurdly (decode validates entry_count against
    // the nibble array and column extents before any array walk).
    std::uint64_t rng = 0x5eed5eed5eed5eedull;
    auto compiled = compileWithCompressed(7);
    ASSERT_EQ(compiled.tiles.size(), 1u);
    ASSERT_EQ(compiled.tiles[0].size(), 1u);
    const auto batches = fuzzBatches(compiled);
    for (int round = 0; round < 400; ++round) {
        CompressedSliceStream garbage;
        garbage.n_pe = static_cast<std::uint32_t>(splitmix(rng) % 6);
        garbage.pe = static_cast<std::uint32_t>(splitmix(rng) % 8);
        garbage.local_rows =
            static_cast<std::uint32_t>(splitmix(rng) % 300);
        garbage.entry_count =
            static_cast<std::uint32_t>(splitmix(rng) % 512);
        const std::uint64_t cols = splitmix(rng) % 20;
        for (std::uint64_t j = 0; j < cols; ++j)
            garbage.col_ptr.push_back(static_cast<std::uint32_t>(
                splitmix(rng) % 600));
        if (splitmix(rng) % 2 == 0 && !garbage.col_ptr.empty()) {
            // Half the rounds: structurally plausible pointers, so
            // the fuzz reaches the Huffman walk itself.
            garbage.col_ptr.front() = 0;
            garbage.col_ptr.back() = garbage.entry_count;
        }
        const std::uint64_t nibble_bytes = splitmix(rng) % 300;
        for (std::uint64_t i = 0; i < nibble_bytes; ++i)
            garbage.nibbles.push_back(
                static_cast<std::uint8_t>(splitmix(rng)));
        if (splitmix(rng) % 2 == 0)
            garbage.nibbles.resize(
                (static_cast<std::size_t>(garbage.entry_count) + 1) /
                2);
        const std::uint64_t delta_bytes = splitmix(rng) % 200;
        for (std::uint64_t i = 0; i < delta_bytes; ++i)
            garbage.delta_bits.push_back(
                static_cast<std::uint8_t>(splitmix(rng)));
        garbage.delta_bit_count =
            splitmix(rng) % (8 * delta_bytes + 9);
        for (unsigned s = 0; s < 256; ++s)
            if (splitmix(rng) % 4 == 0)
                garbage.code_lengths[s] =
                    static_cast<std::uint8_t>(splitmix(rng) % 40);
        for (unsigned v = 0; v < 16; ++v)
            garbage.weight_lut[v] =
                static_cast<std::int32_t>(splitmix(rng));
        const std::size_t k = static_cast<std::size_t>(round) %
            compiled.n_pe;
        expectSameVerdicts(compiled, k, garbage, batches);

        // The same garbage with a header that fits its slot, so the
        // fused path gets past checkFits to the walk itself.
        const SliceSlot slot = slotOf(compiled, k);
        CompressedSliceStream slotted = garbage;
        slotted.n_pe = slot.n_pe;
        slotted.pe = slot.pe;
        slotted.local_rows = slot.local_rows;
        slotted.col_ptr.resize(slot.cols + 1);
        if (garbage.col_ptr.size() > 1 &&
            garbage.col_ptr.front() == 0 &&
            garbage.col_ptr.back() == garbage.entry_count) {
            slotted.col_ptr.front() = 0;
            slotted.col_ptr.back() = garbage.entry_count;
        }
        for (std::int32_t &value : slotted.weight_lut)
            value = static_cast<std::int32_t>(
                slot.weight_min +
                static_cast<std::int64_t>(
                    static_cast<std::uint32_t>(value) %
                    static_cast<std::uint64_t>(slot.weight_max -
                                               slot.weight_min + 1)));
        expectSameVerdicts(compiled, k, slotted, batches);
    }
}

TEST(CompressedStreamFuzz, CorruptRowInZeroColumnStillThrows)
{
    // A row delta corrupted in one column only, and that column zero
    // in every frame: the fused walk skips the column's MAC but must
    // not skip its range check.
    auto compiled = compileWithCompressed(7);
    const auto &tile = compiled.tiles[0][0];
    const std::size_t k = 1;
    const CompressedSliceStream clean = tile.slices[k].compressed;

    // The slice's padding-stripped image, rebuilt from its decode.
    SliceStream decoded;
    clean.decode(decoded);
    compress::DecodedSliceImage image;
    image.col_ptr = decoded.col_ptr;
    std::vector<std::int64_t> raw_lut(clean.weight_lut.begin(),
                                      clean.weight_lut.end());
    for (std::uint32_t e = 0; e < clean.entry_count; ++e) {
        image.local_rows.push_back(
            (decoded.rows[e] - clean.pe) / clean.n_pe);
        image.weight_indices.push_back(static_cast<std::uint8_t>(
            (clean.nibbles[e / 2] >> ((e % 2) * 4)) & 0xf));
    }
    // Push the last row of the first non-empty column one past the
    // slice: still ascending, so encode() accepts it.
    std::size_t bad_col = 0;
    while (image.col_ptr[bad_col + 1] == image.col_ptr[bad_col])
        ++bad_col;
    image.local_rows[image.col_ptr[bad_col + 1] - 1] = clean.local_rows;
    const CompressedSliceStream corrupt = CompressedSliceStream::encode(
        image, raw_lut, clean.n_pe, clean.pe, clean.local_rows);
    SliceStream scratch;
    EXPECT_THROW(corrupt.decode(scratch), CompressedStreamError);

    // Frames dense everywhere except the corrupt column.
    core::EieConfig config;
    config.n_pe = compiled.n_pe;
    const core::FunctionalModel model(config);
    const std::size_t bad_input = tile.col_begin + bad_col;
    std::vector<Batch> batches;
    for (const std::size_t batch : {1u, 9u}) {
        Batch frames;
        for (std::size_t b = 0; b < batch; ++b) {
            frames.push_back(model.quantizeInput(test::randomActivations(
                compiled.input_size, 1.0, 70 + b)));
            frames.back()[bad_input] = 0;
        }
        batches.push_back(std::move(frames));
    }

    core::kernel::WorkerPool pool(3);
    for (core::kernel::WorkerPool *p :
         {static_cast<core::kernel::WorkerPool *>(nullptr), &pool}) {
        for (const Batch &frames : batches) {
            // Clean stream: runs. Corrupt stream: throws, serial or
            // pooled (the pool hands the error back to the caller).
            EXPECT_NO_THROW(core::kernel::runBatch(
                compiled, frames, p, KernelVariant::Compressed));
            compiled.tiles[0][0].slices[k].compressed = corrupt;
            EXPECT_THROW(core::kernel::runBatch(compiled, frames, p,
                                                KernelVariant::Compressed),
                         CompressedStreamError)
                << "batch " << frames.size() << ", "
                << (p ? "pooled" : "serial");
            compiled.tiles[0][0].slices[k].compressed = clean;
        }
    }
}

} // namespace
