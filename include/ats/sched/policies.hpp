#pragma once

#include <cstddef>
#include <deque>

#include "sched/scheduler.hpp"

namespace ats {

/// Global FIFO ready queue — the policy behind every serialized
/// scheduler design in this repo.
class FifoPolicy final : public SchedulerPolicy {
 public:
  void addTask(Task* task) override { ready_.push_back(task); }

  Task* getTask() override {
    if (ready_.empty()) return nullptr;
    Task* task = ready_.front();
    ready_.pop_front();
    return task;
  }

  std::size_t getTasks(Task** out, std::size_t n) override {
    const std::size_t got = n < ready_.size() ? n : ready_.size();
    for (std::size_t i = 0; i < got; ++i) {
      out[i] = ready_.front();
      ready_.pop_front();
    }
    return got;
  }

  std::size_t size() const override { return ready_.size(); }

 private:
  std::deque<Task*> ready_;
};

}  // namespace ats
