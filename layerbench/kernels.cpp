/**
 * @file
 * Kernel-layer probes of the traced run: the common/simd dispatch
 * table (active tier and the scalar reference), BRCR group
 * factorization and the bit-slice merge-strategy dedup, each timed
 * through its public entry point on seeded synthetic data.
 */
#include <cstdint>
#include <functional>

#include "bitslice/sign_magnitude.hpp"
#include "bitslice/sparsity.hpp"
#include "brcr/enumeration.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "harness.hpp"
#include "model/synthetic.hpp"

namespace layerbench {

namespace {

/** Median seconds of @p reps calls of @p fn. */
double
medianSeconds(int reps, const std::function<void()> &fn)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

/** Keeps kernel results observable so the calls are not elided. */
volatile std::uint64_t g_sink = 0;

} // namespace

void
measureKernels(Metrics &m, Tracer &tracer, std::uint64_t seed)
{
    Tracer::Scope span(tracer, "kernels", "kernels");
    using namespace mcbp;

    constexpr std::size_t kWords = std::size_t{1} << 18; // 2 MiB
    common::AlignedBuffer<std::uint64_t> words(kWords);
    common::AlignedBuffer<std::uint32_t> slots(2 * kWords);
    common::AlignedBuffer<std::uint64_t> mask(2 * kWords / 64);
    Rng rng(seed ^ 0x4b45524eull);
    for (std::size_t i = 0; i < kWords; ++i)
        words[i] = rng.next();
    for (std::size_t i = 0; i < 2 * kWords; ++i)
        slots[i] = rng.bernoulli(0.3) ? static_cast<std::uint32_t>(
                                            rng.next() | 1u)
                                      : 0u;
    const double bytes = static_cast<double>(kWords * sizeof(std::uint64_t));
    constexpr int kIters = 16;

    const simd::Kernels &active = simd::kernels();
    const simd::Kernels &scalar = simd::kernelsFor(simd::Tier::Scalar);
    const auto popcount = [&](const simd::Kernels &k) {
        Tracer::Scope call(tracer, "simd::popcountWords", "common.simd");
        return medianSeconds(5, [&] {
            for (int it = 0; it < kIters; ++it)
                g_sink = g_sink + k.popcountWords(words.data(), kWords);
        });
    };
    m.set("common.simd.popcount_gbps",
          bytes * kIters / popcount(active) / 1e9, "GB/s");
    m.set("common.simd.popcount_scalar_gbps",
          bytes * kIters / popcount(scalar) / 1e9, "GB/s");
    {
        Tracer::Scope call(tracer, "simd::nonzeroMask32", "common.simd");
        const double s = medianSeconds(5, [&] {
            for (int it = 0; it < kIters; ++it) {
                active.nonzeroMask32(slots.data(), 2 * kWords,
                                     mask.data());
                g_sink = g_sink + mask[it];
            }
        });
        m.set("common.simd.nonzero_mask_gbps",
              2.0 * kWords * sizeof(std::uint32_t) * kIters / s / 1e9,
              "GB/s");
    }

    // One 64 x 2048 INT8 weight tile, bit-sliced: the plane shape the
    // profiler walks per layer.
    model::WeightProfile profile;
    const quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 2048, quant::BitWidth::Int8, profile);
    const bitslice::SignMagnitude sm =
        bitslice::decompose(qw.values, quant::BitWidth::Int8);
    const bitslice::BitPlane &plane = sm.magnitude[5];
    constexpr int kPlanes = 20;
    {
        Tracer::Scope call(tracer, "brcr::factorizeGroup", "brcr");
        brcr::GroupScratch scratch;
        brcr::GroupFactorization fact;
        const double s = medianSeconds(5, [&] {
            for (int it = 0; it < kPlanes; ++it)
                for (std::size_t row0 = 0; row0 < plane.rows(); row0 += 4) {
                    brcr::factorizeGroup(plane, row0, 4, scratch, fact);
                    g_sink = g_sink + fact.distinctCount();
                }
        });
        m.set("brcr.factorize_us_per_plane", s / kPlanes * 1e6, "us");
    }
    {
        Tracer::Scope call(tracer, "bitslice::compareMergeStrategies",
                           "bitslice");
        const double s = medianSeconds(5, [&] {
            for (int it = 0; it < kPlanes; ++it)
                g_sink = g_sink +
                         bitslice::compareMergeStrategies(plane, 4)
                             .fullMergeAdds;
        });
        m.set("bitslice.merge_dedup_us_per_plane", s / kPlanes * 1e6, "us");
    }
}

} // namespace layerbench
