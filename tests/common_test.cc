// Unit tests for src/common: Status, Result, date arithmetic, bit
// utilities, hashing, deterministic RNG.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/task_scheduler.h"
#include "common/types.h"
#include "common/value.h"

#include <atomic>
#include <chrono>
#include <thread>

namespace x100 {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Overflow("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOverflow());
  EXPECT_EQ(s.code(), StatusCode::kOverflow);
  EXPECT_EQ(s.ToString(), "OVERFLOW: boom");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); c++) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fail = [] { return Status::DivisionByZero("x"); };
  auto wrapper = [&]() -> Status {
    X100_RETURN_IF_ERROR(fail());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsDivisionByZero());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = []() -> Result<int> { return 10; };
  auto chain = [&]() -> Result<int> {
    int v = 0;
    X100_ASSIGN_OR_RETURN(v, produce());
    return v * 2;
  };
  auto r = chain();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 20);
}

TEST(TypesTest, WidthAndNames) {
  EXPECT_EQ(TypeWidth(TypeId::kI32), 4);
  EXPECT_EQ(TypeWidth(TypeId::kI64), 8);
  EXPECT_EQ(TypeWidth(TypeId::kBool), 1);
  EXPECT_EQ(TypeWidth(TypeId::kDate), 4);
  EXPECT_STREQ(TypeName(TypeId::kF64), "f64");
  EXPECT_STREQ(TypeName(TypeId::kStr), "str");
}

TEST(TypesTest, NumericPredicates) {
  EXPECT_TRUE(IsIntegerType(TypeId::kDate));
  EXPECT_TRUE(IsNumericType(TypeId::kF64));
  EXPECT_FALSE(IsNumericType(TypeId::kStr));
  EXPECT_FALSE(IsIntegerType(TypeId::kBool));
}

TEST(DateTest, EpochIsZero) { EXPECT_EQ(MakeDate(1970, 1, 1), 0); }

TEST(DateTest, KnownDates) {
  // TPC-H date range boundaries.
  EXPECT_EQ(DateToString(MakeDate(1992, 1, 1)), "1992-01-01");
  EXPECT_EQ(DateToString(MakeDate(1998, 12, 31)), "1998-12-31");
  // Leap handling.
  EXPECT_EQ(MakeDate(2000, 3, 1) - MakeDate(2000, 2, 28), 2);
  EXPECT_EQ(MakeDate(1900, 3, 1) - MakeDate(1900, 2, 28), 1);
}

TEST(DateTest, RoundTripsAcrossYears) {
  for (int32_t d = MakeDate(1970, 1, 1); d <= MakeDate(2030, 12, 31);
       d += 37) {
    int y, m, dd;
    DateToYmd(d, &y, &m, &dd);
    EXPECT_EQ(MakeDate(y, m, dd), d);
  }
}

TEST(DateTest, ComponentExtraction) {
  const int32_t d = MakeDate(1995, 7, 16);
  EXPECT_EQ(DateYear(d), 1995);
  EXPECT_EQ(DateMonth(d), 7);
  EXPECT_EQ(DateDay(d), 16);
}

TEST(DateTest, ParseValid) {
  int32_t out = -1;
  ASSERT_TRUE(ParseDate("1994-01-01", &out));
  EXPECT_EQ(out, MakeDate(1994, 1, 1));
}

TEST(DateTest, ParseRejectsMalformed) {
  int32_t out;
  EXPECT_FALSE(ParseDate("1994/01/01", &out));
  EXPECT_FALSE(ParseDate("94-01-01", &out));
  EXPECT_FALSE(ParseDate("1994-13-01", &out));
  EXPECT_FALSE(ParseDate("1994-00-10", &out));
  EXPECT_FALSE(ParseDate("1994-01-4x", &out));
  EXPECT_FALSE(ParseDate("", &out));
}

TEST(BitUtilTest, BitsNeeded) {
  EXPECT_EQ(BitsNeeded(0), 0);
  EXPECT_EQ(BitsNeeded(1), 1);
  EXPECT_EQ(BitsNeeded(255), 8);
  EXPECT_EQ(BitsNeeded(256), 9);
  EXPECT_EQ(BitsNeeded(~0ull), 64);
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

TEST(BitUtilTest, ZigZagRoundTrip) {
  for (int64_t v : std::initializer_list<int64_t>{
           0, 1, -1, 1234567, -1234567,
           std::numeric_limits<int64_t>::max(),
           std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes encode small.
  EXPECT_LT(ZigZagEncode(-3), 8u);
}

TEST(HashTest, DistinctValuesHashDistinct) {
  std::set<uint64_t> seen;
  for (int64_t i = 0; i < 1000; i++) seen.insert(HashInt(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, NegativeZeroEqualsPositiveZero) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(HashTest, StringHashRespectsContent) {
  EXPECT_EQ(HashStr(StrRef("abc", 3)), HashStr(StrRef("abc", 3)));
  EXPECT_NE(HashStr(StrRef("abc", 3)), HashStr(StrRef("abd", 3)));
  EXPECT_NE(HashStr(StrRef("abc", 3)), HashStr(StrRef("ab", 2)));
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; i++) {
    int64_t v = r.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; i++) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ValueTest, NullSemantics) {
  Value n = Value::Null(TypeId::kI32);
  EXPECT_TRUE(n.is_null());
  EXPECT_FALSE(n.SqlEquals(n));  // NULL != NULL
  EXPECT_EQ(n.ToString(), "NULL");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value::I32(5).SqlEquals(Value::I64(5)));
  EXPECT_TRUE(Value::I64(5).SqlEquals(Value::F64(5.0)));
  EXPECT_FALSE(Value::I32(5).SqlEquals(Value::I32(6)));
}

TEST(ValueTest, StringAndDateFormatting) {
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Date(MakeDate(1996, 3, 13)).ToString(), "1996-03-13");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
}

// ---------------------------------------------------------------------------
// TaskScheduler / TaskGroup
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, ConfigurableWorkerCount) {
  TaskScheduler pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  TaskScheduler defaulted;
  EXPECT_GE(defaulted.num_workers(), 1);
}

TEST(TaskSchedulerTest, RunsEveryTask) {
  TaskScheduler pool(4);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; i++) {
    group.Spawn([&] {
      done.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(done.load(), 200);
}

TEST(TaskSchedulerTest, SingleWorkerCannotDeadlockJoiner) {
  // Wait() helps drain the pool, so 50 tasks on 1 worker always finish.
  TaskScheduler pool(1);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 50; i++) {
    group.Spawn([&] {
      done.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(done.load(), 50);
}

TEST(TaskSchedulerTest, StealsFromBusyWorker) {
  TaskScheduler pool(2);
  // Block one worker, then enqueue many quick tasks: the other worker
  // must steal the ones round-robined onto the blocked worker's deque.
  // The quick tasks are enqueued only once the blocker runs: queued
  // behind it, the idle worker could drain its own deque and steal the
  // blocker itself, leaving the quick tasks to their own workers.
  std::atomic<bool> release{false};
  std::atomic<bool> blocking{false};
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  group.Spawn([&] {
    blocking.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });
  while (!blocking.load()) std::this_thread::yield();
  for (int i = 0; i < 40; i++) {
    group.Spawn([&] {
      done.fetch_add(1);
      return Status::OK();
    });
  }
  // Wait for the quick tasks while one worker is still blocked. The main
  // thread does NOT help here, to force cross-worker stealing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 40 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), 40);
  EXPECT_GE(pool.tasks_stolen(), 1);
  release.store(true);
  EXPECT_TRUE(group.Wait().ok());
}

TEST(TaskGroupTest, FirstErrorWinsAndCancelsSiblings) {
  TaskScheduler pool(2);
  std::atomic<int> started{0};
  TaskGroup group(&pool);
  group.Spawn([&] {
    started.fetch_add(1);
    return Status::IoError("disk gone");
  });
  for (int i = 0; i < 100; i++) {
    group.Spawn([&] {
      started.fetch_add(1);
      return Status::OK();
    });
  }
  const Status s = group.Wait();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_LE(started.load(), 101);
}

TEST(TaskGroupTest, ExternalTokenSkipsPendingTasks) {
  TaskScheduler pool(1);
  CancellationToken token;
  token.Cancel();  // pre-cancelled: nothing should execute
  std::atomic<int> ran{0};
  TaskGroup group(&pool, &token);
  for (int i = 0; i < 10; i++) {
    group.Spawn([&] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  const Status s = group.Wait();
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGroupTest, DestructorJoinsOutstandingTasks) {
  TaskScheduler pool(2);
  std::atomic<int> done{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 20; i++) {
      group.Spawn([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
        return Status::OK();
      });
    }
    // No Wait(): the destructor must cancel-and-join without letting a
    // task outlive the group.
  }
  const int after = done.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(done.load(), after);  // nothing ran after destruction
}

}  // namespace
}  // namespace x100
