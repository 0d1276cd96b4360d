/**
 * @file
 * Typed error taxonomy for the request-serving paths. A server loop
 * must survive a malformed FASTA record or a failing engine, so the
 * search APIs report failures as values instead of calling fatal():
 *
 *  - Error: an error code plus a message and key=value context;
 *  - Expected<T>: a value or an Error (the return type of the
 *    `try*` APIs: trySearch, tryCompile, tryNext, ...);
 *  - Status: an Expected with no value (validation routines);
 *  - ErrorException: the bridge to the legacy throwing surface. It
 *    derives from FatalError so pre-existing `catch (FatalError&)`
 *    sites keep working while carrying the typed Error.
 *
 * fatal() remains for CLI startup and programmer errors only; the
 * request path (session/engine/chunked-scan/FASTA-stream) returns
 * these types. See DESIGN.md "Failure model".
 */

#ifndef CRISPR_COMMON_ERROR_HPP_
#define CRISPR_COMMON_ERROR_HPP_

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.hpp"

namespace crispr::common {

/** Failure category of a request-path error. */
enum class ErrorCode : uint8_t
{
    Ok = 0,
    InvalidArgument,   //!< bad config / guide set / chunk geometry
    ParseError,        //!< malformed input (FASTA, ...)
    UnsupportedEngine, //!< engine missing or unfit for the request
    CompileFailed,     //!< pattern compilation failed on an engine
    ScanFailed,        //!< a scan failed after exhausting retries
    DeadlineExceeded,  //!< the request's deadline passed
    Cancelled,         //!< the request's token was cancelled
    ResourceExhausted, //!< capacity/memory budget exceeded
    Overloaded,        //!< shed by admission control (a queue bound)
    FaultInjected,     //!< a faultpoints:: test fault fired
    Internal,          //!< unclassified failure (bug shield)
};

/** Stable lower-snake name of a code ("scan_failed", ...). */
const char *errorCodeName(ErrorCode code);

/** One request-path failure: code + message + key=value context. */
class Error
{
  public:
    Error() = default; //!< Ok
    Error(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }
    bool ok() const { return code_ == ErrorCode::Ok; }

    /** Attach a key=value breadcrumb (engine name, chunk index, ...). */
    Error &&
    withContext(std::string key, std::string value) &&
    {
        context_.emplace_back(std::move(key), std::move(value));
        return std::move(*this);
    }
    Error &
    withContext(std::string key, std::string value) &
    {
        context_.emplace_back(std::move(key), std::move(value));
        return *this;
    }

    const std::vector<std::pair<std::string, std::string>> &
    context() const
    {
        return context_;
    }

    /** "[scan_failed] message (engine=hs-auto, chunk=3)". */
    std::string str() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
    std::vector<std::pair<std::string, std::string>> context_;
};

/**
 * The throwing bridge: raised by the legacy (non-`try`) wrappers when
 * the underlying typed API fails. Derives from FatalError so existing
 * catch sites and EXPECT_THROW(..., FatalError) tests keep passing.
 */
class ErrorException : public FatalError
{
  public:
    explicit ErrorException(Error error)
        : FatalError(error.str()), error_(std::move(error))
    {
    }

    const Error &error() const { return error_; }

  private:
    Error error_;
};

/** A value or an Error; the return type of the `try*` APIs. */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : data_(std::move(value)) {}
    Expected(Error error) : data_(std::move(error))
    {
        CRISPR_ASSERT(!std::get<Error>(data_).ok());
    }

    bool ok() const { return std::holds_alternative<T>(data_); }
    explicit operator bool() const { return ok(); }

    T &
    value() &
    {
        CRISPR_ASSERT(ok());
        return std::get<T>(data_);
    }
    const T &
    value() const &
    {
        CRISPR_ASSERT(ok());
        return std::get<T>(data_);
    }
    T &&
    value() &&
    {
        CRISPR_ASSERT(ok());
        return std::get<T>(std::move(data_));
    }

    const Error &
    error() const
    {
        CRISPR_ASSERT(!ok());
        return std::get<Error>(data_);
    }

    /** The value, or throw the error as an ErrorException. */
    T &&
    valueOrThrow() &&
    {
        if (!ok())
            throw ErrorException(std::get<Error>(data_));
        return std::get<T>(std::move(data_));
    }

  private:
    std::variant<T, Error> data_;
};

/** Success or an Error; the valueless Expected. */
class [[nodiscard]] Status
{
  public:
    Status() = default; //!< success
    Status(Error error) : error_(std::move(error)) {}

    bool ok() const { return error_.ok(); }
    explicit operator bool() const { return ok(); }
    const Error &error() const { return error_; }

    /** Throw the error as an ErrorException when not ok. */
    void
    throwIfError() const
    {
        if (!ok())
            throw ErrorException(error_);
    }

  private:
    Error error_;
};

} // namespace crispr::common

#endif // CRISPR_COMMON_ERROR_HPP_
