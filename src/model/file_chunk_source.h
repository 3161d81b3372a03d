// Bounded-memory file-backed ChunkedStream (DESIGN.md §6.3): serves the
// sharded parse stage's chunk contract straight from a stream file
// through a sliding readahead window of W chunks, instead of
// materializing the whole file first (ReadFileBytes + MakeChunkedStream).
//
// A regular file is mapped read-only with MADV_SEQUENTIAL and chunk
// cursors decode zero-copy views into the mapping; retiring a chunk
// MADV_DONTNEEDs its pages, so the resident set slides with the window.
// Inputs that cannot be mapped — pipes, empty files, a failed mmap,
// non-POSIX builds — are read once into a resident buffer and served
// through the same chunk contract (only the memory bound degrades).
//
// Chunk boundaries are resolved lazily but *sequentially* (CSV newline
// alignment and global line numbers depend on every preceding byte), by
// whichever thread's OpenChunk needs the next unresolved chunk; the
// window bounds how far resolution may run ahead of retirement, so peak
// ingest-buffer memory is O(W · chunk_size) regardless of file size.
// Boundary math is PickNumChunks plus the exact splitting rules of the
// in-memory chunkers, so chunk count, chunk contents, error text (global
// line numbers / absolute byte offsets) and merge order are byte-identical
// to the materialized path — the hard contract the differential tests in
// tests/file_ingest_test.cc pin down.
//
// Retirement is cursor destruction: OpenChunk wraps each cursor so the
// chunk returns to the window when its parser drops it (the RunSharded
// parser loop and ChunkWalkCursor both drop a chunk's cursor before
// opening the next). Elements carry interned ids only, so retired bytes
// are never referenced again. Abort() (called by the sharded merge on an
// aborting run) wakes any parser blocked on the window so teardown cannot
// hang.
//
// Deadlock-freedom: resolved-but-unretired chunks always form a prefix of
// the chunk order. If the window is full, some resident chunk is either
// held open by a parser that can make progress (the merge drains chunks
// in index order, and gutter backpressure always drains eventually
// because execution drains batches), or not yet opened by its owner —
// who is never blocked on the window for a *resolved* chunk. Every
// blocked OpenChunk therefore eventually unblocks.

#ifndef SGQ_MODEL_FILE_CHUNK_SOURCE_H_
#define SGQ_MODEL_FILE_CHUNK_SOURCE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/stream_io.h"
#include "model/vocabulary.h"

namespace sgq {

/// \brief Knobs of a file-backed chunk source.
struct FileChunkOptions {
  /// Lift the per-chunk non-decreasing-timestamp check (reorder-slack
  /// consumers re-validate downstream), like MakeChunkedStream.
  bool allow_disorder = false;
  /// Lower bound on the chunk count (parser fan-out), like
  /// MakeChunkedStream.
  std::size_t min_chunks = 1;
  /// Readahead window W: chunks resolved but not yet retired at once.
  /// Clamped to >= 2 so resolution can overlap one parse. Peak resident
  /// mapped bytes are O(W · ~256 KB).
  std::size_t readahead_chunks = 8;
};

/// \brief Windowed file-backed ChunkedStream; construct through
/// MakeFileChunkSource. Thread-safe like every ChunkedStream, plus the
/// blocking/abort semantics described in the file comment.
class FileChunkSource : public ChunkedStream {
 public:
  ~FileChunkSource() override;

  FileChunkSource(const FileChunkSource&) = delete;
  FileChunkSource& operator=(const FileChunkSource&) = delete;

  std::size_t NumChunks() const override { return chunks_.size(); }
  std::unique_ptr<StreamCursor> OpenChunk(std::size_t i) const override;
  StreamFormat format() const override { return format_; }
  void Abort() const override;
  std::uint64_t ReadaheadStallNs() const override {
    return stall_ns_.load(std::memory_order_relaxed);
  }

  /// \brief Total stream bytes on disk.
  std::uint64_t file_size() const { return file_size_; }

  /// \brief The resolved readahead window W.
  std::size_t window_chunks() const { return window_; }

  /// \brief High-water mark of resident chunk payload bytes — the number
  /// the RSS-bound test asserts is O(window), independent of file size.
  /// (For the materialize fallback — pipes — this is the whole stream.)
  std::uint64_t peak_resident_bytes() const;

 private:
  friend Result<std::unique_ptr<FileChunkSource>> OpenFileChunkSource(
      const std::string& path, const StreamFormat* format, Vocabulary* vocab,
      const FileChunkOptions& options);

  enum class ChunkPhase : std::uint8_t {
    kUnresolved,  ///< boundary not resolved yet
    kLoaded,      ///< resident: cursor views are valid
    kRetired,     ///< was resident, window slot released
  };

  struct ChunkState {
    std::uint64_t begin = 0;       ///< absolute byte offset (inclusive)
    std::uint64_t end = 0;         ///< absolute byte offset (exclusive)
    std::size_t base_line = 0;     ///< CSV: lines preceding `begin`
    ChunkPhase phase = ChunkPhase::kUnresolved;
    int opens = 0;                 ///< live cursors over this chunk
  };

  /// \brief What LoadChunk produced off-lock.
  struct LoadResult {
    std::uint64_t end = 0;         ///< resolved end (CSV boundary scan)
    std::size_t newlines = 0;      ///< CSV: '\n' count in [begin, end)
  };

  FileChunkSource() = default;

  /// \brief The stream bytes: the mapping, or the resident buffer.
  const char* bytes() const {
    return map_ != nullptr ? map_ : owned_.data();
  }

  /// \brief Resolves chunk `k`'s boundary, paging its bytes in. Runs
  /// without the lock (`mu_` protects only the application of results).
  LoadResult LoadChunk(std::size_t k, std::uint64_t begin) const;

  /// \brief Cursor-destruction callback: releases the chunk's window
  /// slot once every cursor over it is gone.
  void RetireChunk(std::size_t i) const;

  std::unique_ptr<StreamCursor> MakeChunkCursor(const ChunkState& c) const;

  StreamFormat format_ = StreamFormat::kCsv;
  Vocabulary* vocab_ = nullptr;
  bool allow_disorder_ = false;
  std::size_t window_ = 2;
  std::uint64_t file_size_ = 0;

  const char* map_ = nullptr;         ///< mmap base (regular files)
  std::size_t map_size_ = 0;
  std::string owned_;                 ///< resident fallback (pipes/empty)

  std::shared_ptr<const BinaryStreamHeader> header_;  ///< binary only

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<ChunkState> chunks_;
  mutable std::size_t next_unresolved_ = 0;
  mutable std::uint64_t next_begin_ = 0;   ///< CSV: next chunk's begin
  mutable std::size_t lines_so_far_ = 0;   ///< CSV: '\n' before next_begin_
  mutable std::size_t resident_ = 0;       ///< loaded (unretired) chunks
  mutable bool resolving_ = false;         ///< a thread is off-lock in I/O
  mutable bool aborted_ = false;
  mutable std::uint64_t resident_bytes_ = 0;
  mutable std::uint64_t peak_resident_bytes_ = 0;
  mutable std::atomic<std::uint64_t> stall_ns_{0};
};

/// \brief Opens `path` as a windowed chunk source for `format`. The file
/// is opened exactly once. Binary headers parse here, once,
/// deterministically, in place; CSV defers all boundary work to the lazy
/// window. Errors: missing file / directory / unreadable input, and
/// binary header errors — identical text to the materialized
/// MakeChunkedStream path.
Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, StreamFormat format, Vocabulary* vocab,
    const FileChunkOptions& options = {});

/// \brief MakeFileChunkSource that sniffs the format (SGQB magic vs CSV,
/// DetectStreamFormat) from the bytes it already holds — so a pipe is
/// read once, not consumed by a separate probe.
Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, Vocabulary* vocab,
    const FileChunkOptions& options = {});

}  // namespace sgq

#endif  // SGQ_MODEL_FILE_CHUNK_SOURCE_H_
