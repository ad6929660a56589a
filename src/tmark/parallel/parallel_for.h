#ifndef TMARK_PARALLEL_PARALLEL_FOR_H_
#define TMARK_PARALLEL_PARALLEL_FOR_H_

// Deterministic data-parallel loops on top of the global ThreadPool.
//
// Chunk boundaries are computed from the element count and grain alone —
// never from the thread count — so a kernel that writes disjoint outputs is
// bit-identical at any parallelism degree, and a reduction that combines
// ordered per-chunk partials in chunk order is too. Callers pick grains
// large enough that a chunk's work outweighs its dispatch; an input below
// one grain collapses to a single chunk, which executes the exact serial
// loop on the calling thread.

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "tmark/parallel/thread_pool.h"

namespace tmark::parallel {

/// Default cap on the number of chunks a loop splits into. High enough for
/// dynamic load balancing across any realistic pool, low enough that the
/// per-chunk partial buffers of reductions stay cheap.
inline constexpr std::size_t kDefaultMaxChunks = 64;

/// Number of chunks for `count` elements at the given grain, capped at
/// `max_chunks`. Depends only on the inputs (deterministic across thread
/// counts). Returns 0 for an empty range, 1 when count <= grain.
inline std::size_t NumFixedChunks(std::size_t count, std::size_t grain,
                                  std::size_t max_chunks = kDefaultMaxChunks) {
  if (count == 0) return 0;
  if (grain == 0) grain = 1;
  if (max_chunks == 0) max_chunks = 1;
  const std::size_t chunks = (count + grain - 1) / grain;
  return chunks < max_chunks ? chunks : max_chunks;
}

/// Runs body(chunk, begin, end) for `num_chunks` contiguous, near-equal
/// slices of [0, count). With 0 or 1 chunks the body runs inline on the
/// calling thread (the guaranteed serial path). Templated on the body so
/// the common single-chunk case is a direct call — no std::function
/// allocation on the steady-state hot path; only the genuinely parallel
/// branch type-erases for ThreadPool::Run.
template <typename Body>
void ParallelChunks(std::size_t count, std::size_t num_chunks, Body&& body) {
  if (count == 0 || num_chunks == 0) return;
  if (num_chunks == 1) {
    body(std::size_t{0}, std::size_t{0}, count);
    return;
  }
  if (num_chunks > count) num_chunks = count;
  // The pool takes a std::function; keep the callable a single trivially
  // copyable pointer so it fits the small-buffer store and the multi-chunk
  // dispatch allocates nothing (steady-state kernel calls stay heap-free).
  struct Ctx {
    std::size_t base;
    std::size_t extra;
    std::remove_reference_t<Body>* body;
  } ctx{count / num_chunks, count % num_chunks, &body};
  Ctx* const p = &ctx;
  GlobalPool().Run(num_chunks, [p](std::size_t chunk) {
    // Chunks [0, p->extra) carry one extra element.
    const std::size_t begin =
        chunk * p->base + (chunk < p->extra ? chunk : p->extra);
    const std::size_t end = begin + p->base + (chunk < p->extra ? 1 : 0);
    (*p->body)(chunk, begin, end);
  });
}

/// Runs body(begin, end) over grain-sized ranges of [0, count).
template <typename Body>
void ParallelForRanges(std::size_t count, std::size_t grain, Body&& body) {
  ParallelChunks(count, NumFixedChunks(count, grain),
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   body(begin, end);
                 });
}

/// Deterministic reduction: map(begin, end) produces one partial per chunk,
/// combine folds the partials left-to-right in chunk order starting from
/// `identity`. With one chunk this degenerates to
/// combine(identity, map(0, count)) on the calling thread.
template <typename T, typename Map, typename Combine>
T ParallelReduce(std::size_t count, std::size_t grain, T identity, Map&& map,
                 Combine&& combine) {
  const std::size_t chunks = NumFixedChunks(count, grain);
  if (chunks == 0) return identity;
  if (chunks == 1) return combine(std::move(identity), map(0, count));
  std::vector<T> partials(chunks, identity);
  ParallelChunks(count, chunks,
                 [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                   partials[chunk] = map(begin, end);
                 });
  T result = std::move(identity);
  for (T& partial : partials) result = combine(std::move(result), partial);
  return result;
}

}  // namespace tmark::parallel

#endif  // TMARK_PARALLEL_PARALLEL_FOR_H_
