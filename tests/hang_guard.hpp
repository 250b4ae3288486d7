// HangGuard: turns a hung test into a prompt, named failure.
//
// Some net tests disable the event loop's timer (poll_ms = 10 minutes)
// so that only the tenant consumer's wake can resume a paused
// connection. If that wake is lost, the sender blocks on the paused
// socket and teardown's drain waits out the timer, so no assertion
// ever runs. Likewise a paced `wss stream` replay that misses its stop
// signal sleeps out a simulated gap of hours. The guard ends the
// process instead, naming the test and the likely cause.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

namespace wss::testing_util {

class HangGuard {
 public:
  explicit HangGuard(
      std::chrono::seconds limit,
      std::string cause = "a paused connection was never resumed") {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr ? std::string("?")
                                       : std::string(info->test_suite_name()) +
                                             "." + info->name();
    watcher_ = std::thread([this, limit, name = std::move(name),
                            cause = std::move(cause)] {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, limit, [this] { return done_; })) return;
      std::fprintf(stderr, "%s: still running after %lld s; %s\n",
                   name.c_str(), static_cast<long long>(limit.count()),
                   cause.c_str());
      std::fflush(stderr);
      std::_Exit(1);
    });
  }

  HangGuard(const HangGuard&) = delete;
  HangGuard& operator=(const HangGuard&) = delete;

  ~HangGuard() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    watcher_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread watcher_;
};

}  // namespace wss::testing_util
