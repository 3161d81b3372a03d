#include "model/file_chunk_source.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define SGQ_FILE_SOURCE_POSIX 1
#endif

namespace sgq {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

std::string ErrnoText(int err) {
  if (err == 0) return "unknown error";
  return std::strerror(err);
}

/// \brief A cursor that is already dead (opened after Abort): Next yields
/// nothing and status() carries why.
class ErrorCursor : public StreamCursor {
 public:
  explicit ErrorCursor(Status status) : status_(std::move(status)) {}
  std::size_t Next(Sge*, std::size_t) override { return 0; }
  const Status& status() const override { return status_; }

 private:
  Status status_;
};

/// \brief Wraps a chunk cursor so dropping it returns the chunk to the
/// readahead window. The inner cursor is destroyed first — its views die
/// before the bytes can be recycled.
class RetiringCursor : public StreamCursor {
 public:
  RetiringCursor(const FileChunkSource* source, std::size_t chunk,
                 std::unique_ptr<StreamCursor> inner,
                 void (FileChunkSource::*retire)(std::size_t) const)
      : source_(source), chunk_(chunk), retire_(retire),
        inner_(std::move(inner)) {}
  ~RetiringCursor() override {
    inner_.reset();
    (source_->*retire_)(chunk_);
  }

  std::size_t Next(Sge* out, std::size_t cap) override {
    return inner_->Next(out, cap);
  }
  const Status& status() const override { return inner_->status(); }

 private:
  const FileChunkSource* source_;
  std::size_t chunk_;
  void (FileChunkSource::*retire_)(std::size_t) const;
  std::unique_ptr<StreamCursor> inner_;
};

#if defined(SGQ_FILE_SOURCE_POSIX)
/// \brief Reads `fd` to EOF into `out` (pipes and unmappable files).
Status ReadAll(int fd, const std::string& path, std::string* out) {
  char buffer[kStreamIoBufferBytes];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) return Status::OK();
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("read error on stream file: " + path + ": " +
                              ErrnoText(errno));
    }
    out->append(buffer, static_cast<std::size_t>(n));
  }
}
#endif

}  // namespace

FileChunkSource::~FileChunkSource() {
#if defined(SGQ_FILE_SOURCE_POSIX)
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_size_);
  }
#endif
}

std::uint64_t FileChunkSource::peak_resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

void FileChunkSource::Abort() const {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

FileChunkSource::LoadResult FileChunkSource::LoadChunk(
    std::size_t k, std::uint64_t begin) const {
  LoadResult r;
  if (format_ == StreamFormat::kBinary) {
    // Record-aligned boundaries were fixed arithmetically at
    // construction; there is nothing to resolve.
    r.end = chunks_[k].end;
    return r;
  }

  // CSV: replicate the in-memory splitter exactly — ideal boundary
  // size*(k+1)/n, extended to the first newline at or after it; a chunk
  // whose ideal boundary fell behind its begin collapses to empty (the
  // newline ending the previous chunk is also the first at/after this
  // ideal boundary — boundaries are monotone). The scan touches the bytes
  // directly: this is the sequential page-in mmap readahead runs ahead of.
  const std::uint64_t size = file_size_;
  const std::size_t n = chunks_.size();
  const std::uint64_t ideal =
      (k + 1 == n) ? size
                   : (size * static_cast<std::uint64_t>(k + 1)) / n;
  if (k + 1 < n && ideal < begin) {
    r.end = begin;
    return r;
  }
  const char* base = bytes();
  std::uint64_t end = size;
  if (k + 1 < n) {
    const char* nl = static_cast<const char*>(std::memchr(
        base + ideal, '\n', static_cast<std::size_t>(size - ideal)));
    end = (nl == nullptr) ? size : static_cast<std::uint64_t>(nl - base) + 1;
  }
  end = std::max(end, begin);
  r.end = end;
  r.newlines =
      static_cast<std::size_t>(std::count(base + begin, base + end, '\n'));
  return r;
}

std::unique_ptr<StreamCursor> FileChunkSource::MakeChunkCursor(
    const ChunkState& c) const {
  const std::string_view view(bytes() + c.begin,
                              static_cast<std::size_t>(c.end - c.begin));
  if (format_ == StreamFormat::kBinary) {
    return std::make_unique<BinaryStreamCursor>(
        header_, view, static_cast<std::size_t>(c.begin), allow_disorder_);
  }
  return std::make_unique<StreamCsvCursor>(view, vocab_, allow_disorder_,
                                           c.base_line);
}

std::unique_ptr<StreamCursor> FileChunkSource::OpenChunk(
    std::size_t i) const {
  const auto t0 = Clock::now();
  SGQ_CHECK(i < chunks_.size()) << "chunk index out of range";
  std::unique_ptr<StreamCursor> out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (aborted_) {
        out = std::make_unique<ErrorCursor>(
            Status::Internal("file chunk feeder aborted"));
        break;
      }
      ChunkState& c = chunks_[i];
      if (c.phase == ChunkPhase::kLoaded) {
        ++c.opens;
        out = std::make_unique<RetiringCursor>(
            this, i, MakeChunkCursor(c), &FileChunkSource::RetireChunk);
        break;
      }
      if (c.phase == ChunkPhase::kRetired) {
        // Reopening a retired chunk (tests, never the pipeline): the
        // boundary is known and the bytes are still mapped or resident.
        // Counts against the window high-water mark but does not wait for
        // a slot — a reopened chunk must not deadlock a full window.
        c.phase = ChunkPhase::kLoaded;
        ++resident_;
        resident_bytes_ += c.end - c.begin;
        peak_resident_bytes_ =
            std::max(peak_resident_bytes_, resident_bytes_);
        continue;
      }
      // Unresolved: resolution is strictly sequential and windowed.
      if (resolving_ || resident_ >= window_ || next_unresolved_ > i) {
        cv_.wait(lock);
        continue;
      }
      const std::size_t k = next_unresolved_;
      const std::uint64_t begin =
          format_ == StreamFormat::kBinary ? chunks_[k].begin : next_begin_;
      resolving_ = true;
      lock.unlock();
      const LoadResult r = LoadChunk(k, begin);
      lock.lock();
      resolving_ = false;
      ChunkState& loaded = chunks_[k];
      if (format_ != StreamFormat::kBinary) {
        loaded.begin = begin;
        loaded.end = r.end;
        loaded.base_line = lines_so_far_;
        next_begin_ = r.end;
        lines_so_far_ += r.newlines;
      }
      loaded.phase = ChunkPhase::kLoaded;
      next_unresolved_ = k + 1;
      ++resident_;
      resident_bytes_ += loaded.end - loaded.begin;
      peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
      cv_.notify_all();
    }
  }
  stall_ns_.fetch_add(ElapsedNs(t0), std::memory_order_relaxed);
  return out;
}

void FileChunkSource::RetireChunk(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  ChunkState& c = chunks_[i];
  if (c.opens > 0) --c.opens;
  if (c.opens > 0 || c.phase != ChunkPhase::kLoaded) return;
  c.phase = ChunkPhase::kRetired;
  --resident_;
  resident_bytes_ -= c.end - c.begin;
#if defined(SGQ_FILE_SOURCE_POSIX)
  if (map_ != nullptr && c.end > c.begin) {
    // Return the chunk's pages to the kernel so the mapping's resident
    // set slides with the window. Inner page-aligned range only;
    // advisory, so failure is ignorable.
    const std::uint64_t page = static_cast<std::uint64_t>(
        ::sysconf(_SC_PAGESIZE));
    const std::uint64_t lo = (c.begin + page - 1) / page * page;
    const std::uint64_t hi = c.end / page * page;
    if (hi > lo) {
      ::madvise(const_cast<char*>(map_) + lo,
                static_cast<std::size_t>(hi - lo), MADV_DONTNEED);
    }
  }
#endif
  cv_.notify_all();
}

Result<std::unique_ptr<FileChunkSource>> OpenFileChunkSource(
    const std::string& path, const StreamFormat* format, Vocabulary* vocab,
    const FileChunkOptions& options) {
  auto source = std::unique_ptr<FileChunkSource>(new FileChunkSource());
  source->vocab_ = vocab;
  source->allow_disorder_ = options.allow_disorder;
  source->window_ = std::max<std::size_t>(options.readahead_chunks, 2);

#if defined(SGQ_FILE_SOURCE_POSIX)
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("cannot open stream file: " + path +
                                   ": is a directory");
  }
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open stream file: " + path + ": " +
                            ErrnoText(errno));
  }
  Status status = Status::OK();
  if (::fstat(fd, &st) != 0) {
    status = Status::Internal("read error on stream file: " + path +
                              ": " + ErrnoText(errno));
  } else if (S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      source->map_ = static_cast<const char*>(map);
      source->map_size_ = size;
      ::madvise(map, size, MADV_SEQUENTIAL);
    }
  }
  // Pipes and other non-seekable inputs cannot be windowed (the chunk
  // count needs the total size up front), and empty files or a failed
  // mmap have nothing mapped: read the one open descriptor into a
  // resident buffer.
  if (status.ok() && source->map_ == nullptr) {
    status = ReadAll(fd, path, &source->owned_);
  }
  ::close(fd);  // a mapping outlives its descriptor
  SGQ_RETURN_NOT_OK(status);
#else
  // No mmap on this platform: read the file into a resident buffer (the
  // chunk contract and error text still match; only the memory bound
  // degrades, and only here).
  SGQ_ASSIGN_OR_RETURN(source->owned_, ReadFileBytes(path));
#endif
  if (source->map_ != nullptr) {
    source->file_size_ = source->map_size_;
  } else {
    source->file_size_ = source->owned_.size();
    source->peak_resident_bytes_ = source->owned_.size();
  }
  const std::string_view all(source->bytes(),
                             static_cast<std::size_t>(source->file_size_));
  source->format_ = format != nullptr ? *format : DetectStreamFormat(all);

  std::size_t num_chunks;
  if (source->format_ == StreamFormat::kBinary) {
    // Parse the header once, up front and in place (deterministic
    // interning).
    SGQ_ASSIGN_OR_RETURN(BinaryStreamHeader parsed,
                         ParseBinaryStreamHeader(all, vocab));
    const std::uint64_t records = parsed.num_records;
    const std::uint64_t records_offset = parsed.records_offset;
    source->header_ =
        std::make_shared<const BinaryStreamHeader>(std::move(parsed));
    num_chunks = PickNumChunks(
        static_cast<std::size_t>(records) * kBinaryRecordBytes,
        options.min_chunks);
    source->chunks_.resize(num_chunks);
    std::uint64_t begin = 0;
    for (std::size_t i = 0; i < num_chunks; ++i) {
      const std::uint64_t end =
          (i + 1 == num_chunks)
              ? records
              : (records * static_cast<std::uint64_t>(i + 1)) / num_chunks;
      source->chunks_[i].begin =
          records_offset + begin * kBinaryRecordBytes;
      source->chunks_[i].end =
          records_offset + std::max(end, begin) * kBinaryRecordBytes;
      begin = std::max(end, begin);
    }
  } else {
    num_chunks = PickNumChunks(
        static_cast<std::size_t>(source->file_size_), options.min_chunks);
    source->chunks_.resize(num_chunks);
  }
  return source;
}

Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, StreamFormat format, Vocabulary* vocab,
    const FileChunkOptions& options) {
  return OpenFileChunkSource(path, &format, vocab, options);
}

Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, Vocabulary* vocab,
    const FileChunkOptions& options) {
  return OpenFileChunkSource(path, nullptr, vocab, options);
}

}  // namespace sgq
