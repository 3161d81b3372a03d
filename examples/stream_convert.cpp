// stream_convert: convert edge streams between CSV text and the SGQB
// binary format (model/stream_io.h, DESIGN.md §6).
//
// Usage:
//   stream_convert [--to-binary | --to-csv] <input> <output>
//
// Without a direction flag the input format is sniffed by its magic bytes
// and the stream is converted to the *other* format. Conversion is exact:
// CSV -> binary -> CSV reproduces the original text byte for byte (the
// binary dictionaries record names in first-use order, the same order a
// CSV parse interns them).
//
// Bounded memory: a regular input file is mapped and streams through a
// windowed chunk feeder (model/file_chunk_source.h) and the output
// flushes through a 32 KB staging buffer (FileByteSink), so converting a
// file much larger than RAM holds only the readahead window, the staging
// buffer and the name dictionaries. A pipe (e.g. /dev/stdin) is read
// once into memory. Writing SGQB needs the dictionaries and the record
// count in the header before the first record, so that direction walks
// the opened input twice (dictionary pass, then encode pass); writing
// CSV is single-pass.
//
// Exit status: 0 on success, 1 on I/O or parse errors, 2 on usage errors.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "model/file_chunk_source.h"
#include "model/stream_io.h"
#include "model/vocabulary.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: stream_convert [--to-binary | --to-csv] "
               "<input> <output>\n"
               "  --to-binary  write SGQB binary (input must be CSV or "
               "SGQB)\n"
               "  --to-csv     write CSV text (input must be CSV or SGQB)\n"
               "  default      sniff the input format, convert to the "
               "other one\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgq;

  bool have_target = false;
  StreamFormat target = StreamFormat::kBinary;
  const char* input_path = nullptr;
  const char* output_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--to-binary") == 0) {
      target = StreamFormat::kBinary;
      have_target = true;
    } else if (std::strcmp(argv[i], "--to-csv") == 0) {
      target = StreamFormat::kCsv;
      have_target = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    } else if (input_path == nullptr) {
      input_path = argv[i];
    } else if (output_path == nullptr) {
      output_path = argv[i];
    } else {
      std::fprintf(stderr, "too many arguments\n");
      PrintUsage(stderr);
      return 2;
    }
  }
  if (input_path == nullptr || output_path == nullptr) {
    PrintUsage(stderr);
    return 2;
  }

  // Decode with a fresh vocabulary so the binary dictionaries (and a
  // later CSV re-render) follow the stream's own first-use order. Both
  // passes share it; interning is idempotent, so ids are stable. The
  // input is opened once and its format sniffed from the bytes it holds.
  Vocabulary vocab;
  auto in = MakeFileChunkSource(input_path, &vocab);
  if (!in.ok()) {
    std::fprintf(stderr, "%s\n", in.status().ToString().c_str());
    return 1;
  }
  const StreamFormat source = (*in)->format();
  if (!have_target) {
    target = source == StreamFormat::kCsv ? StreamFormat::kBinary
                                          : StreamFormat::kCsv;
  }
  const std::uint64_t in_bytes = (*in)->file_size();

  FileByteSink sink(output_path);
  if (!sink.status().ok()) {
    std::fprintf(stderr, "%s\n", sink.status().ToString().c_str());
    return 1;
  }
  std::string staging;
  const auto ship = [&](bool final_flush) {
    if (final_flush || staging.size() >= kStreamIoBufferBytes) {
      if (Status s = sink.Append(staging); !s.ok()) return s;
      staging.clear();
    }
    return Status::OK();
  };

  std::uint64_t num_elements = 0;
  Sge buf[256];
  constexpr std::size_t kCap = sizeof(buf) / sizeof(buf[0]);

  if (target == StreamFormat::kCsv) {
    // Single pass: decode, render, ship.
    ChunkWalkCursor cursor(**in, /*allow_disorder=*/false);
    for (;;) {
      const std::size_t n = cursor.Next(buf, kCap);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        AppendCsvLine(buf[i], vocab, &staging);
      }
      num_elements += n;
      if (Status s = ship(false); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
    if (!cursor.ok()) {
      std::fprintf(stderr, "%s: %s\n", input_path,
                   cursor.status().ToString().c_str());
      return 1;
    }
  } else {
    // Pass 1: first-use-order dictionaries and the record count — the
    // header needs both before the first record can be written.
    std::unordered_map<LabelId, std::uint32_t> label_index;
    std::unordered_map<VertexId, std::uint32_t> vertex_index;
    std::vector<LabelId> labels;
    std::vector<VertexId> vertices;
    const auto vertex_idx = [&](VertexId v) {
      auto [it, inserted] = vertex_index.emplace(
          v, static_cast<std::uint32_t>(vertices.size()));
      if (inserted) vertices.push_back(v);
      return it->second;
    };
    const auto label_idx = [&](LabelId l) {
      auto [it, inserted] =
          label_index.emplace(l, static_cast<std::uint32_t>(labels.size()));
      if (inserted) labels.push_back(l);
      return it->second;
    };
    {
      ChunkWalkCursor cursor(**in, /*allow_disorder=*/false);
      for (;;) {
        const std::size_t n = cursor.Next(buf, kCap);
        if (n == 0) break;
        for (std::size_t i = 0; i < n; ++i) {
          // CSV intern order is src, label, trg per line; match it exactly.
          vertex_idx(buf[i].src);
          label_idx(buf[i].label);
          vertex_idx(buf[i].trg);
        }
        num_elements += n;
        if (labels.size() > UINT32_MAX || vertices.size() > UINT32_MAX) {
          std::fprintf(stderr,
                       "%s: binary stream: more than 2^32 - 1 distinct "
                       "labels/vertices\n",
                       input_path);
          return 1;
        }
      }
      if (!cursor.ok()) {
        std::fprintf(stderr, "%s: %s\n", input_path,
                     cursor.status().ToString().c_str());
        return 1;
      }
    }
    if (Status s =
            AppendBinaryStreamHeader(labels, vertices, num_elements, vocab,
                                     &staging);
        !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", input_path, s.ToString().c_str());
      return 1;
    }
    // Pass 2: walk the same source again (retired chunks reopen from the
    // mapping or the resident buffer; same vocab, so ids are stable) and
    // encode each record through the now-complete index maps.
    ChunkWalkCursor cursor(**in, /*allow_disorder=*/false);
    for (;;) {
      const std::size_t n = cursor.Next(buf, kCap);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        AppendBinaryStreamRecord(buf[i], vertex_index.at(buf[i].src),
                                 vertex_index.at(buf[i].trg),
                                 label_index.at(buf[i].label), &staging);
      }
      if (Status s = ship(false); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
    if (!cursor.ok()) {
      std::fprintf(stderr, "%s: %s\n", input_path,
                   cursor.status().ToString().c_str());
      return 1;
    }
  }

  if (Status s = ship(true); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = sink.Close(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(
      stderr, "%s (%s, %zu bytes) -> %s (%s, %zu bytes), %zu elements\n",
      input_path, source == StreamFormat::kBinary ? "SGQB" : "CSV",
      static_cast<std::size_t>(in_bytes), output_path,
      target == StreamFormat::kBinary ? "SGQB" : "CSV",
      static_cast<std::size_t>(sink.bytes_written()),
      static_cast<std::size_t>(num_elements));
  return 0;
}
