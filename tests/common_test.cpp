#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace rcc {
namespace {

// -- Status / Result ----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsParseError());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kConstraintViolation, StatusCode::kNotSupported,
        StatusCode::kInternal, StatusCode::kUnavailable,
        StatusCode::kStaleOk}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(StatusTest, StaleOkIsAdvisory) {
  Status st = Status::StaleOk("2000ms stale");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsStaleOk());
  EXPECT_EQ(st.code(), StatusCode::kStaleOk);
}

TEST(ResultTest, RejectsOkStatusWithoutValue) {
  // A Result built from an OK status would be ok()==false while
  // status().ok()==true — error propagation (RCC_ASSIGN_OR_RETURN) would then
  // silently return OK from the enclosing function. The constructor coerces
  // such a status to an Internal error instead.
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, RejectedOkStatusDoesNotPropagateAsSuccess) {
  auto passthrough = [](Result<int> in) -> Result<int> {
    RCC_ASSIGN_OR_RETURN(int v, std::move(in));
    return v;
  };
  Result<int> out = passthrough(Status::OK());
  ASSERT_FALSE(out.ok());
  EXPECT_FALSE(out.status().ok());
}

Result<int> Doubler(Result<int> in) {
  RCC_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

// -- VirtualClock / Scheduler ----------------------------------------------------

TEST(ClockTest, NeverMovesBackwards) {
  VirtualClock clock;
  clock.AdvanceTo(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceBy(25);
  EXPECT_EQ(clock.Now(), 125);
}

TEST(SchedulerTest, FiresInTimeOrder) {
  VirtualClock clock;
  SimulationScheduler sched(&clock);
  std::vector<int> fired;
  sched.ScheduleAt(30, [&](SimTimeMs) { fired.push_back(3); });
  sched.ScheduleAt(10, [&](SimTimeMs) { fired.push_back(1); });
  sched.ScheduleAt(20, [&](SimTimeMs) { fired.push_back(2); });
  sched.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(clock.Now(), 25);
  sched.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, EqualTimesFireInScheduleOrder) {
  VirtualClock clock;
  SimulationScheduler sched(&clock);
  std::vector<int> fired;
  sched.ScheduleAt(10, [&](SimTimeMs) { fired.push_back(1); });
  sched.ScheduleAt(10, [&](SimTimeMs) { fired.push_back(2); });
  sched.RunUntil(10);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, PeriodicReschedulesItself) {
  VirtualClock clock;
  SimulationScheduler sched(&clock);
  int count = 0;
  sched.SchedulePeriodic(10, 10, [&](SimTimeMs) { ++count; });
  sched.RunUntil(55);
  EXPECT_EQ(count, 5);  // t = 10,20,30,40,50
}

TEST(SchedulerTest, CancelledPeriodicSeriesFreesItsClosure) {
  VirtualClock clock;
  SimulationScheduler sched(&clock);
  auto fired = std::make_shared<int>(0);
  std::weak_ptr<int> watch = fired;
  CancelToken cancel = MakeCancelToken();
  sched.SchedulePeriodic(10, 10, [fired](SimTimeMs) { ++*fired; }, cancel);
  fired.reset();  // the series' closure now holds the only reference
  sched.RunUntil(35);
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(*watch.lock(), 3);  // t = 10,20,30
  cancel->store(true);
  sched.RunUntil(100);  // pops the cancelled firing at t = 40
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(watch.expired());
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
  VirtualClock clock;
  SimulationScheduler sched(&clock);
  std::vector<SimTimeMs> fired;
  sched.ScheduleAt(10, [&](SimTimeMs now) {
    fired.push_back(now);
    sched.ScheduleAt(now + 5, [&](SimTimeMs n2) { fired.push_back(n2); });
  });
  sched.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTimeMs>{10, 15}));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  VirtualClock clock;
  SimulationScheduler sched(&clock);
  clock.AdvanceTo(100);
  bool fired = false;
  sched.ScheduleAt(10, [&](SimTimeMs) { fired = true; });
  sched.RunUntil(100);
  EXPECT_TRUE(fired);
}

TEST(ClockTest, FormatSimTime) {
  EXPECT_EQ(FormatSimTime(0), "0.000s");
  EXPECT_EQ(FormatSimTime(12345), "12.345s");
  EXPECT_EQ(FormatSimTime(-1), "-0.001s");
  EXPECT_EQ(FormatSimTime(-1500), "-1.500s");
}

// -- strings -------------------------------------------------------------------

TEST(StringsTest, ToLowerAndEquals) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, ToLowerIsAsciiOnlyAndLocaleIndependent) {
  // Exhaustive: exactly 'A'..'Z' map down; every other byte value — digits,
  // punctuation, control bytes, and everything >= 0x80 (UTF-8 continuation
  // bytes, Latin-1 letters) — passes through untouched, regardless of the
  // global locale.
  for (int b = 0; b < 256; ++b) {
    char c = static_cast<char>(b);
    char lowered = AsciiToLowerChar(c);
    if (b >= 'A' && b <= 'Z') {
      EXPECT_EQ(lowered, static_cast<char>(b + 32)) << "byte " << b;
    } else {
      EXPECT_EQ(lowered, c) << "byte " << b;
    }
  }
  // High-bit bytes inside strings survive byte-for-byte ("café" in UTF-8).
  std::string utf8 = "CAF\xc3\xa9";
  EXPECT_EQ(ToLower(utf8), "caf\xc3\xa9");
  EXPECT_TRUE(EqualsIgnoreCase("caf\xc3\xa9", "CAF\xc3\xa9"));
  // 0xC9 is 'É' in Latin-1: a locale-aware tolower would fold it to 0xE9.
  EXPECT_FALSE(EqualsIgnoreCase("\xc9", "\xe9"));
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a, b , c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StrPrintf) {
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

// -- thread pool shutdown determinism -----------------------------------------

TEST(ThreadPoolShutdownTest, ShutdownDrainsEveryAcceptedTask) {
  // A single worker with a long queue: Shutdown must run all of it, not
  // silently drop the tail.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 200);
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolShutdownTest, SubmitAfterShutdownIsRejectedNotDropped) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> ran{0};
  // Rejected means guaranteed-not-run: the caller knows to handle it, unlike
  // the old accept-then-drop behaviour where the task vanished.
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolShutdownTest, RunExecutesInlineAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  // Run's contract (every task executes exactly once) survives shutdown via
  // the inline fallback.
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back([&ran] { ran.fetch_add(1); });
  pool.Run(std::move(tasks));
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPoolShutdownTest, CancelPendingDiscardsOnlyQueuedWork) {
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the single worker so everything behind it stays queued.
  ASSERT_TRUE(pool.Submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  }));
  // Wait until the worker owns the blocker, otherwise CancelPending would
  // discard the blocker itself and the arithmetic below counts 51 tasks.
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  size_t dropped = pool.CancelPending();
  release.store(true);
  pool.Shutdown();
  // Everything is accounted for: ran + explicitly discarded == submitted.
  EXPECT_EQ(static_cast<int>(dropped) + ran.load(), 50);
  EXPECT_GT(dropped, 0u);
}

// -- rng --------------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace rcc
