#include "net/wire.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

namespace hydra {

namespace {

void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header, uint8_t* out) {
  PutU32(out, header.magic);
  out[4] = header.version;
  out[5] = header.opcode;
  PutU16(out + 6, header.reserved);
  PutU64(out + 8, header.request_id);
  PutU32(out + 16, header.payload_len);
}

FrameHeader DecodeFrameHeader(const uint8_t* in) {
  FrameHeader header;
  header.magic = GetU32(in);
  header.version = in[4];
  header.opcode = in[5];
  header.reserved = GetU16(in + 6);
  header.request_id = GetU64(in + 8);
  header.payload_len = GetU32(in + 16);
  return header;
}

Status ValidateFrameHeader(const FrameHeader& header) {
  if (header.magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (header.version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  if (header.payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload too large");
  }
  return Status::OK();
}

void WireWriter::U16(uint16_t v) {
  uint8_t buf[2];
  PutU16(buf, v);
  Bytes(buf, sizeof(buf));
}

void WireWriter::U32(uint32_t v) {
  uint8_t buf[4];
  PutU32(buf, v);
  Bytes(buf, sizeof(buf));
}

void WireWriter::U64(uint64_t v) {
  uint8_t buf[8];
  PutU64(buf, v);
  Bytes(buf, sizeof(buf));
}

void WireWriter::Bytes(const void* data, size_t n) {
  out_->append(static_cast<const char*>(data), n);
}

void WireWriter::LengthPrefixed(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Bytes(s.data(), s.size());
}

Status WireReader::Take(size_t n, const uint8_t** p) {
  if (size_ - pos_ < n) {
    return Status::InvalidArgument("truncated wire payload");
  }
  *p = data_ + pos_;
  pos_ += n;
  return Status::OK();
}

Status WireReader::U8(uint8_t* v) {
  const uint8_t* p;
  HYDRA_RETURN_IF_ERROR(Take(1, &p));
  *v = *p;
  return Status::OK();
}

Status WireReader::U16(uint16_t* v) {
  const uint8_t* p;
  HYDRA_RETURN_IF_ERROR(Take(2, &p));
  *v = GetU16(p);
  return Status::OK();
}

Status WireReader::U32(uint32_t* v) {
  const uint8_t* p;
  HYDRA_RETURN_IF_ERROR(Take(4, &p));
  *v = GetU32(p);
  return Status::OK();
}

Status WireReader::U64(uint64_t* v) {
  const uint8_t* p;
  HYDRA_RETURN_IF_ERROR(Take(8, &p));
  *v = GetU64(p);
  return Status::OK();
}

Status WireReader::I32(int32_t* v) {
  uint32_t raw;
  HYDRA_RETURN_IF_ERROR(U32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::OK();
}

Status WireReader::I64(int64_t* v) {
  uint64_t raw;
  HYDRA_RETURN_IF_ERROR(U64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::OK();
}

Status WireReader::LengthPrefixed(std::string* s) {
  uint32_t len;
  HYDRA_RETURN_IF_ERROR(U32(&len));
  const uint8_t* p;
  HYDRA_RETURN_IF_ERROR(Take(len, &p));
  s->assign(reinterpret_cast<const char*>(p), len);
  return Status::OK();
}

void AppendStatusEnvelope(const Status& status, std::string* out) {
  WireWriter writer(out);
  writer.U16(static_cast<uint16_t>(ToServeErrorCode(status.code())));
  writer.LengthPrefixed(status.ok() ? std::string() : status.message());
}

Status ReadStatusEnvelope(WireReader* reader, Status* status) {
  uint16_t code;
  std::string message;
  HYDRA_RETURN_IF_ERROR(reader->U16(&code));
  HYDRA_RETURN_IF_ERROR(reader->LengthPrefixed(&message));
  *status = StatusFromWire(code, std::move(message));
  return Status::OK();
}

void AppendOpenSessionRequest(const OpenSessionRequest& request,
                              std::string* out) {
  WireWriter writer(out);
  writer.LengthPrefixed(request.summary_id);
  writer.I64(request.deadline_ms);
  writer.I32(request.priority);
  writer.I64(request.rate_limit_rows_per_sec);
}

Status ReadOpenSessionRequest(WireReader* reader, OpenSessionRequest* request) {
  HYDRA_RETURN_IF_ERROR(reader->LengthPrefixed(&request->summary_id));
  HYDRA_RETURN_IF_ERROR(reader->I64(&request->deadline_ms));
  HYDRA_RETURN_IF_ERROR(reader->I32(&request->priority));
  HYDRA_RETURN_IF_ERROR(reader->I64(&request->rate_limit_rows_per_sec));
  request->cancel = nullptr;
  return Status::OK();
}

void AppendPredicate(const DnfPredicate& predicate, std::string* out) {
  WireWriter writer(out);
  writer.U32(static_cast<uint32_t>(predicate.conjuncts().size()));
  for (const Conjunct& conjunct : predicate.conjuncts()) {
    writer.U32(static_cast<uint32_t>(conjunct.atoms.size()));
    for (const Atom& atom : conjunct.atoms) {
      writer.I32(atom.column);
      writer.U32(static_cast<uint32_t>(atom.values.intervals().size()));
      for (const Interval& interval : atom.values.intervals()) {
        writer.I64(interval.lo);
        writer.I64(interval.hi);
      }
    }
  }
}

Status ReadPredicate(WireReader* reader, DnfPredicate* predicate) {
  *predicate = DnfPredicate();  // zero conjuncts = False()
  uint32_t num_conjuncts;
  HYDRA_RETURN_IF_ERROR(reader->U32(&num_conjuncts));
  for (uint32_t c = 0; c < num_conjuncts; ++c) {
    Conjunct conjunct;
    uint32_t num_atoms;
    HYDRA_RETURN_IF_ERROR(reader->U32(&num_atoms));
    for (uint32_t a = 0; a < num_atoms; ++a) {
      Atom atom;
      HYDRA_RETURN_IF_ERROR(reader->I32(&atom.column));
      uint32_t num_intervals;
      HYDRA_RETURN_IF_ERROR(reader->U32(&num_intervals));
      std::vector<Interval> intervals;
      // Reserve only what the bytes present can back (16 bytes each), so a
      // lying count can't force a huge allocation.
      intervals.reserve(
          std::min<size_t>(num_intervals, reader->remaining() / 16 + 1));
      for (uint32_t i = 0; i < num_intervals; ++i) {
        Interval interval;
        HYDRA_RETURN_IF_ERROR(reader->I64(&interval.lo));
        HYDRA_RETURN_IF_ERROR(reader->I64(&interval.hi));
        intervals.push_back(interval);
      }
      atom.values = IntervalSet(std::move(intervals));
      conjunct.atoms.push_back(std::move(atom));
    }
    predicate->AddConjunct(std::move(conjunct));
  }
  return Status::OK();
}

void AppendCursorSpec(const CursorSpec& spec, std::string* out) {
  WireWriter writer(out);
  writer.I32(spec.relation);
  writer.I64(spec.begin_rank);
  writer.I64(spec.end_rank);
  writer.U32(static_cast<uint32_t>(spec.projection.size()));
  for (const int col : spec.projection) writer.I32(col);
  AppendPredicate(spec.filter, out);
}

Status ReadCursorSpec(WireReader* reader, CursorSpec* spec) {
  HYDRA_RETURN_IF_ERROR(reader->I32(&spec->relation));
  HYDRA_RETURN_IF_ERROR(reader->I64(&spec->begin_rank));
  HYDRA_RETURN_IF_ERROR(reader->I64(&spec->end_rank));
  uint32_t num_projection;
  HYDRA_RETURN_IF_ERROR(reader->U32(&num_projection));
  spec->projection.clear();
  spec->projection.reserve(
      std::min<size_t>(num_projection, reader->remaining() / 4 + 1));
  for (uint32_t i = 0; i < num_projection; ++i) {
    int32_t col;
    HYDRA_RETURN_IF_ERROR(reader->I32(&col));
    spec->projection.push_back(col);
  }
  return ReadPredicate(reader, &spec->filter);
}

void AppendRowBlock(const RowBlock& block, std::string* out) {
  WireWriter writer(out);
  writer.U32(static_cast<uint32_t>(block.num_columns()));
  writer.U64(static_cast<uint64_t>(block.num_rows()));
  // Columns go out as raw value buffers (8 bytes per value, host order —
  // the protocol targets little-endian hosts on both ends).
  const size_t column_bytes =
      static_cast<size_t>(block.num_rows()) * sizeof(Value);
  for (int c = 0; c < block.num_columns(); ++c) {
    writer.Bytes(block.Column(c), column_bytes);
  }
}

Status ReadRowBlock(WireReader* reader, RowBlock* block) {
  uint32_t num_columns;
  uint64_t num_rows;
  HYDRA_RETURN_IF_ERROR(reader->U32(&num_columns));
  HYDRA_RETURN_IF_ERROR(reader->U64(&num_rows));
  // The whole block must be backed by bytes actually present before any
  // allocation happens — a lying header is rejected, not trusted.
  if (num_columns > 0 && num_rows > reader->remaining() / sizeof(Value) /
                                        num_columns) {
    return Status::InvalidArgument("row block larger than payload");
  }
  block->Reset(static_cast<int>(num_columns));
  block->ResizeUninitialized(static_cast<int64_t>(num_rows));
  const size_t column_bytes = static_cast<size_t>(num_rows) * sizeof(Value);
  for (uint32_t c = 0; c < num_columns; ++c) {
    const uint8_t* src;
    HYDRA_RETURN_IF_ERROR(reader->Raw(column_bytes, &src));
    std::memcpy(block->MutableColumn(static_cast<int>(c)), src, column_bytes);
  }
  return Status::OK();
}

Status ReadExact(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got > 0) {
      p += got;
      n -= static_cast<size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return Status::Unavailable(got == 0 ? "connection closed"
                                        : std::strerror(errno));
  }
  return Status::OK();
}

Status WriteAll(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t wrote = ::send(fd, p, n, MSG_NOSIGNAL);
    if (wrote > 0) {
      p += wrote;
      n -= static_cast<size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace hydra
