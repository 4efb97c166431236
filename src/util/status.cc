#include "util/status.h"

namespace tcdb {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

const std::string& Status::EmptyMessage() {
  static const std::string* const empty = new std::string();
  return *empty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(rep_->code);
  if (!rep_->message.empty()) {
    out += ": ";
    out += rep_->message;
  }
  return out;
}

}  // namespace tcdb
