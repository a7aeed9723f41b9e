#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "obs/flight_recorder.h"
#include "store/atomic_file.h"

namespace idlog {

namespace {

/// Upper bound on one record's framed length: a frame claiming more is
/// a lying length field (torn tail), not a real record.
constexpr uint64_t kMaxRecordLen = 1ull << 28;

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " '" + path + "' failed: " + std::strerror(errno);
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValues(std::string* out, const std::vector<WalValue>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const WalValue& v : values) {
    PutU8(out, v.is_symbol ? 1 : 0);
    if (v.is_symbol) {
      PutStr(out, v.symbol);
    } else {
      PutU64(out, static_cast<uint64_t>(v.number));
    }
  }
}

uint32_t ReadU32(const char* p) {
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return r;
}

uint64_t ReadU64(const char* p) {
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return r;
}

/// Bounds-checked reader over one record payload. Unlike the snapshot
/// reader this one reports failure as a plain bool: inside the scan a
/// malformed payload means "torn tail here", not an error to surface.
struct PayloadReader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool U8(uint8_t* v) {
    if (size - pos < 1) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool U32(uint32_t* v) {
    if (size - pos < 4) return false;
    *v = ReadU32(data + pos);
    pos += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (size - pos < 8) return false;
    *v = ReadU64(data + pos);
    pos += 8;
    return true;
  }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (size - pos < len) return false;
    s->assign(data + pos, len);
    pos += len;
    return true;
  }
  bool AtEnd() const { return pos == size; }
};

/// How a CRC-valid record payload decoded.
enum class Decoded {
  kOk,
  kMalformed,    ///< Truncated field, unknown tag, trailing bytes.
  kOutOfRange,   ///< An integer value beyond 2^63 - 1 (not a natural).
};

/// Decodes one record payload.
Decoded DecodePayload(WalRecordType type, const char* payload, size_t len,
                      WalRecord* out) {
  PayloadReader r{payload, len};
  out->type = type;
  switch (type) {
    case WalRecordType::kBegin:
    case WalRecordType::kCommit:
      if (!r.U64(&out->txn_id)) return Decoded::kMalformed;
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kRetract: {
      if (!r.Str(&out->pred)) return Decoded::kMalformed;
      uint32_t arity = 0;
      if (!r.U32(&arity)) return Decoded::kMalformed;
      // Every value occupies at least two payload bytes (tag + body),
      // so an arity larger than the remaining bytes could encode is a
      // lie — reject it *before* reserving, or a crafted CRC-valid
      // frame could force a multi-GB allocation instead of reading as
      // a torn tail.
      if (arity > (r.size - r.pos) / 2) return Decoded::kMalformed;
      out->values.reserve(arity);
      for (uint32_t i = 0; i < arity; ++i) {
        uint8_t tag = 0;
        if (!r.U8(&tag)) return Decoded::kMalformed;
        if (tag == 0) {
          uint64_t n = 0;
          if (!r.U64(&n)) return Decoded::kMalformed;
          if (n > static_cast<uint64_t>(INT64_MAX)) {
            return Decoded::kOutOfRange;
          }
          out->values.push_back(WalValue::Number(static_cast<int64_t>(n)));
        } else if (tag == 1) {
          std::string name;
          if (!r.Str(&name)) return Decoded::kMalformed;
          out->values.push_back(WalValue::Symbol(std::move(name)));
        } else {
          return Decoded::kMalformed;
        }
      }
      break;
    }
    case WalRecordType::kCheckpointRef:
      if (!r.U64(&out->covered_offset)) return Decoded::kMalformed;
      if (!r.Str(&out->snapshot_path)) return Decoded::kMalformed;
      break;
    default:
      return Decoded::kMalformed;
  }
  return r.AtEnd() ? Decoded::kOk : Decoded::kMalformed;
}

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  switch (record.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kCommit:
      PutU64(&payload, record.txn_id);
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kRetract:
      PutStr(&payload, record.pred);
      PutValues(&payload, record.values);
      break;
    case WalRecordType::kCheckpointRef:
      PutU64(&payload, record.covered_offset);
      PutStr(&payload, record.snapshot_path);
      break;
  }
  return payload;
}

std::string FrameRecord(WalRecordType type, const std::string& payload) {
  std::string body;
  body.reserve(1 + payload.size());
  PutU8(&body, static_cast<uint8_t>(type));
  body.append(payload);
  std::string out;
  PutU32(&out, static_cast<uint32_t>(body.size()));
  PutU32(&out, Crc32(body));
  out.append(body);
  return out;
}

Status WriteAll(int fd, const char* p, size_t left,
                const std::string& path) {
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kBegin: return "BEGIN";
    case WalRecordType::kInsert: return "INSERT";
    case WalRecordType::kRetract: return "RETRACT";
    case WalRecordType::kCommit: return "COMMIT";
    case WalRecordType::kCheckpointRef: return "CHECKPOINT-REF";
  }
  return "?";
}

std::string SerializeWalHeader(uint64_t epoch, uint64_t program_hash) {
  std::string out;
  out.append(kWalMagic, sizeof(kWalMagic));
  PutU32(&out, kWalVersion);
  PutU64(&out, epoch);
  PutU64(&out, program_hash);
  PutU32(&out, Crc32(out));
  return out;
}

std::string SerializeWalRecord(const WalRecord& record) {
  return FrameRecord(record.type, EncodePayload(record));
}

Result<WalScanResult> ScanWal(const std::string& path) {
  std::string bytes;
  IDLOG_RETURN_NOT_OK(ReadFileToString(path, &bytes));

  // The header is written atomically (WriteFileAtomic), so a short or
  // damaged header cannot be a crash artifact — refuse loudly instead
  // of "recovering" over what may be someone else's file.
  if (bytes.size() < kWalHeaderSize) {
    return Status::InvalidArgument(
        "'" + path + "' is not an idlog WAL: file is " +
        std::to_string(bytes.size()) + " bytes, smaller than the " +
        std::to_string(kWalHeaderSize) + "-byte header (headers are "
        "written atomically, so this is corruption, not a torn tail)");
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an idlog WAL (bad magic)");
  }
  uint32_t version = ReadU32(bytes.data() + 8);
  if (version != kWalVersion) {
    return Status::Unsupported(
        "'" + path + "' is idlog-wal-v" + std::to_string(version) +
        "; this build reads idlog-wal-v" + std::to_string(kWalVersion) +
        " only");
  }
  uint32_t stored_crc = ReadU32(bytes.data() + 28);
  if (Crc32(std::string_view(bytes.data(), 28)) != stored_crc) {
    return Status::InvalidArgument("'" + path +
                                   "' WAL header fails its CRC");
  }

  WalScanResult scan;
  scan.epoch = ReadU64(bytes.data() + 12);
  scan.program_hash = ReadU64(bytes.data() + 20);
  scan.file_size = bytes.size();

  std::vector<WalRecord> records;
  size_t pos = kWalHeaderSize;
  bool in_txn = false;
  bool torn = false;
  while (pos < bytes.size()) {
    IDLOG_FAILPOINT("wal.replay.decode");
    if (bytes.size() - pos < 8) {
      torn = true;
      break;
    }
    uint32_t len = ReadU32(bytes.data() + pos);
    uint32_t crc = ReadU32(bytes.data() + pos + 4);
    if (len < 1 || len > kMaxRecordLen || bytes.size() - pos - 8 < len) {
      torn = true;
      break;
    }
    std::string_view body(bytes.data() + pos + 8, len);
    if (Crc32(body) != crc) {
      torn = true;
      break;
    }
    WalRecord record;
    record.offset = pos;
    uint8_t type = static_cast<uint8_t>(body[0]);
    const Decoded decoded = DecodePayload(static_cast<WalRecordType>(type),
                                          body.data() + 1, len - 1, &record);
    if (decoded == Decoded::kOutOfRange) {
      // Values are naturals packed into 63 bits; wrapping this one
      // would silently replay a different tuple.
      return Status::InvalidArgument(
          "'" + path + "' WAL record at offset " + std::to_string(pos) +
          " carries an integer beyond the 63-bit value range");
    }
    if (decoded != Decoded::kOk) {
      torn = true;
      break;
    }
    // Structural discipline our writer always obeys; a violation means
    // the frame happened to checksum but is not a real tail.
    switch (record.type) {
      case WalRecordType::kBegin:
        if (in_txn) torn = true;
        in_txn = true;
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kRetract:
        if (!in_txn) torn = true;
        break;
      case WalRecordType::kCommit:
        if (!in_txn) torn = true;
        in_txn = false;
        break;
      case WalRecordType::kCheckpointRef:
        if (in_txn) torn = true;
        break;
    }
    if (torn) break;
    pos += 8 + len;
    FlightRecorder::Record(FlightEventKind::kWalReplay,
                           WalRecordTypeName(record.type),
                           static_cast<int64_t>(record.offset),
                           static_cast<int64_t>(record.txn_id));
    records.push_back(std::move(record));
    if (!in_txn) scan.committed_length = pos;
  }

  // Keep only records inside the committed prefix: a trailing
  // BEGIN..(no COMMIT) is semantically absent and gets truncated along
  // with any torn frame.
  for (WalRecord& r : records) {
    if (r.offset < scan.committed_length) {
      scan.records.push_back(std::move(r));
    } else {
      ++scan.records_dropped;
    }
  }
  scan.tail_truncated = torn || scan.committed_length < bytes.size();
  return scan;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Create(
    const std::string& path, uint64_t epoch, uint64_t program_hash,
    uint64_t group_commit_every) {
  IDLOG_RETURN_NOT_OK(
      WriteFileAtomic(path, SerializeWalHeader(epoch, program_hash)));
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return Status::Internal(Errno("open", path));
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, fd, epoch, program_hash, kWalHeaderSize,
                        group_commit_every));
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::OpenForAppend(
    const std::string& path, const WalScanResult& scan,
    uint64_t group_commit_every) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return Status::Internal(Errno("open", path));
  if (::ftruncate(fd, static_cast<off_t>(scan.committed_length)) != 0) {
    Status st = Status::Internal(Errno("ftruncate", path));
    ::close(fd);
    return st;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    Status st = Status::Internal(Errno("lseek", path));
    ::close(fd);
    return st;
  }
  // Make the truncation itself durable: a torn tail must not resurface
  // after the next crash, interleaved with freshly appended records.
  if (::fsync(fd) != 0) {
    Status st = Status::Internal(Errno("fsync", path));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, fd, scan.epoch, scan.program_hash,
                        scan.committed_length, group_commit_every));
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    (void)Flush();
    (void)::close(fd_);
  }
}

Status WriteAheadLog::AppendRecord(WalRecordType type,
                                   const std::string& payload,
                                   int64_t detail) {
  if (fd_ < 0) {
    return Status::Internal("WAL '" + path_ + "' is closed");
  }
  IDLOG_FAILPOINT("wal.append");
  std::string frame = FrameRecord(type, payload);
  pending_.append(frame);
  ++pending_records_;
  bytes_appended_ += frame.size();
  FlightRecorder::Record(FlightEventKind::kWalAppend,
                         WalRecordTypeName(type),
                         static_cast<int64_t>(payload.size()), detail);
  return Status::OK();
}

Status WriteAheadLog::AppendBegin(uint64_t txn_id) {
  std::string payload;
  PutU64(&payload, txn_id);
  return AppendRecord(WalRecordType::kBegin, payload,
                      static_cast<int64_t>(txn_id));
}

Status WriteAheadLog::AppendInsert(const std::string& pred,
                                   const std::vector<WalValue>& values) {
  std::string payload;
  PutStr(&payload, pred);
  PutValues(&payload, values);
  return AppendRecord(WalRecordType::kInsert, payload, 0);
}

Status WriteAheadLog::AppendRetract(const std::string& pred,
                                    const std::vector<WalValue>& values) {
  std::string payload;
  PutStr(&payload, pred);
  PutValues(&payload, values);
  return AppendRecord(WalRecordType::kRetract, payload, 0);
}

Status WriteAheadLog::AppendCommit(uint64_t txn_id) {
  IDLOG_FAILPOINT("wal.commit");
  std::string payload;
  PutU64(&payload, txn_id);
  IDLOG_RETURN_NOT_OK(AppendRecord(WalRecordType::kCommit, payload,
                                   static_cast<int64_t>(txn_id)));
  ++commits_appended_;
  if (++pending_commits_ >= group_commit_every_) {
    return Flush();
  }
  return Status::OK();
}

Status WriteAheadLog::AppendCheckpointRef(uint64_t covered_offset,
                                          const std::string& snapshot_path) {
  std::string payload;
  PutU64(&payload, covered_offset);
  PutStr(&payload, snapshot_path);
  IDLOG_RETURN_NOT_OK(AppendRecord(WalRecordType::kCheckpointRef, payload,
                                   static_cast<int64_t>(covered_offset)));
  return Flush();
}

Status WriteAheadLog::Flush() {
  // A failed flush may have written its frames without fsyncing them;
  // retrying would append the same frames a second time and recovery
  // would replay the duplicate. Once a flush fails the log is
  // write-poisoned for its remaining lifetime (the destructor's
  // best-effort flush included).
  if (write_failed_) {
    return Status::Internal("WAL '" + path_ +
                            "': an earlier flush failed after bytes may "
                            "have reached the file; refusing to write "
                            "again (recover from the on-disk log)");
  }
  if (pending_.empty()) return Status::OK();
  if (fd_ < 0) {
    return Status::Internal("WAL '" + path_ + "' is closed");
  }
  Status wst = WriteAll(fd_, pending_.data(), pending_.size(), path_);
  if (wst.ok()) {
    wst = [&]() -> Status {
      IDLOG_FAILPOINT("wal.fsync");
      if (::fsync(fd_) != 0) {
        return Status::Internal(Errno("fsync", path_));
      }
      return Status::OK();
    }();
  }
  if (!wst.ok()) {
    write_failed_ = true;
    return wst;
  }
  durable_size_ += pending_.size();
  uint64_t group = pending_records_;
  pending_.clear();
  pending_records_ = 0;
  pending_commits_ = 0;
  FlightRecorder::Record(FlightEventKind::kWalFsync, "commit",
                         static_cast<int64_t>(group),
                         static_cast<int64_t>(durable_size_));
  return Status::OK();
}

Status WriteAheadLog::Rotate(uint64_t new_epoch) {
  IDLOG_RETURN_NOT_OK(Flush());
  IDLOG_FAILPOINT("wal.rotate");
  uint64_t retired = durable_size_;
  // The fresh header lands via rename, so at every instant the path
  // holds either the full old log or a pristine new-epoch one.
  IDLOG_RETURN_NOT_OK(
      WriteFileAtomic(path_, SerializeWalHeader(new_epoch, program_hash_)));
  int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return Status::Internal(Errno("open", path_));
  if (fd_ >= 0) (void)::close(fd_);
  fd_ = fd;
  epoch_ = new_epoch;
  durable_size_ = kWalHeaderSize;
  FlightRecorder::Record(FlightEventKind::kWalRotate, "rotate",
                         static_cast<int64_t>(new_epoch),
                         static_cast<int64_t>(retired));
  return Status::OK();
}

Status WriteAheadLog::Close() {
  if (fd_ < 0) return Status::OK();
  Status st = Flush();
  if (::close(fd_) != 0 && st.ok()) {
    st = Status::Internal(Errno("close", path_));
  }
  fd_ = -1;
  return st;
}

}  // namespace idlog
