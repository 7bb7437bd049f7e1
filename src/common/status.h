#ifndef TURBOBP_COMMON_STATUS_H_
#define TURBOBP_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace turbobp {

// Lightweight status object: the library does not use exceptions (hot paths
// in the buffer manager cannot afford unwinding and the style guide bans
// them); operations that can fail return Status / StatusOr. The class is
// [[nodiscard]]: silently dropping a Status is a compile error under
// -Werror; truly-ignorable results must say so with TURBOBP_IGNORE_STATUS.
class [[nodiscard]] Status {
 public:
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIoError = 4,
    kFull = 5,
    kAborted = 6,
    kUnavailable = 7,
  };

  Status() : code_(Code::kOk) {}
  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IoError(std::string msg = "") {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status Full(std::string msg = "") {
    return Status(Code::kFull, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  // A device (or service) that has permanently stopped answering; unlike
  // kIoError this is not worth retrying.
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsFull() const { return code_ == Code::kFull; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "unknown";
    switch (code_) {
      case Code::kOk: name = "OK"; break;
      case Code::kNotFound: name = "NotFound"; break;
      case Code::kCorruption: name = "Corruption"; break;
      case Code::kInvalidArgument: name = "InvalidArgument"; break;
      case Code::kIoError: name = "IoError"; break;
      case Code::kFull: name = "Full"; break;
      case Code::kAborted: name = "Aborted"; break;
      case Code::kUnavailable: name = "Unavailable"; break;
    }
    return message_.empty() ? std::string(name)
                            : std::string(name) + ": " + message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

// Terminates the process with a message; used for invariant violations that
// indicate a bug in the library itself (never for user errors).
[[noreturn]] inline void Panic(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "turbobp PANIC at %s:%d: %s\n", file, line, msg);
  std::abort();
}

#define TURBOBP_CHECK(cond)                          \
  do {                                               \
    if (!(cond)) {                                   \
      ::turbobp::Panic(__FILE__, __LINE__, #cond);   \
    }                                                \
  } while (0)

// Documents that a Status is deliberately dropped (rare; prefer checking).
#define TURBOBP_IGNORE_STATUS(expr)                  \
  do {                                               \
    ::turbobp::Status _ignored = (expr);             \
    (void)_ignored;                                  \
  } while (0)

#define TURBOBP_CHECK_OK(expr)                                        \
  do {                                                                \
    ::turbobp::Status _s = (expr);                                    \
    if (!_s.ok()) {                                                   \
      ::turbobp::Panic(__FILE__, __LINE__, _s.ToString().c_str());    \
    }                                                                 \
  } while (0)

#ifndef NDEBUG
#define TURBOBP_DCHECK(cond) TURBOBP_CHECK(cond)
#else
#define TURBOBP_DCHECK(cond) \
  do {                       \
  } while (0)
#endif

}  // namespace turbobp

#endif  // TURBOBP_COMMON_STATUS_H_
