// Non-owning reference to a callable. Lets a non-template function take a
// lambda without std::function's type erasure, which may heap-allocate for
// a capture list larger than its small buffer (the engine hot path must
// stay allocation-free). The referenced callable must outlive the call.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace cgx::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): by design
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace cgx::util
