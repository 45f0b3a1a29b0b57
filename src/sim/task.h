// Lazy coroutine task types for the discrete-event simulation.
//
// A Task<T> is a coroutine that does not start until awaited. Awaiting it
// runs the child at once and resumes the parent the moment the child
// completes, so control passes in exactly the order of plain calls. A
// child that completes without suspending returns to its parent on the
// same stack (await_suspend returns false); only a child that really
// suspended resumes its parent by symmetric transfer at completion. That
// keeps stack depth bounded by nesting, not by how many awaits a loop
// makes: without it, a loop awaiting children that finish synchronously
// (a merge popping buffered entries) grows the stack at every iteration
// wherever symmetric transfer is not compiled as a tail call (-O0,
// sanitizer builds). The simulation is strictly single-threaded: all
// concurrency is virtual, interleaved by the event queue, so none of
// this needs atomics.
//
// GCC 12 PITFALL: never pass a *prvalue temporary* of a non-trivially-
// copyable type (std::string, structs containing them) as a BY-VALUE
// argument to a coroutine, e.g. `co_await F(MyStruct{...})`. GCC 12's
// guaranteed-elision path bit-copies the parameter into the coroutine
// frame, leaving SSO string pointers aimed at the caller's (soon freed)
// frame — a use-after-free that only bites once the data is moved onward.
// Always name the object and `std::move` it: `MyStruct s{...};
// co_await F(std::move(s));`. Reference parameters (`const T&`) bound to
// temporaries are fine as long as the caller co_awaits the task within the
// same full expression, which is this library's universal calling pattern.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace kvcsd::sim {

template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  // The awaiting parent suspended (the child did not finish inline), so
  // completion must resume it; otherwise the parent is still inside its
  // await_suspend and carries on by itself.
  bool parent_suspended = false;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      if (promise.parent_suspended) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }

  T TakeResult() {
    if (exception) std::rethrow_exception(exception);
    assert(value.has_value());
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}

  void TakeResult() const {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

// Move-only owning handle to a lazy coroutine.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  // Awaiting a Task starts it and resumes the awaiter on completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> awaiting) noexcept {
        auto& promise = handle.promise();
        promise.continuation = awaiting;
        handle.resume();  // runs until the child suspends or completes
        if (handle.done()) return false;  // finished inline: carry on
        promise.parent_suspended = true;
        return true;
      }
      T await_resume() { return handle.promise().TakeResult(); }
    };
    return Awaiter{handle_};
  }
  auto operator co_await() & noexcept = delete;  // must own the task

  // Release ownership (used by the detached-spawn machinery).
  Handle release() { return std::exchange(handle_, nullptr); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace kvcsd::sim
