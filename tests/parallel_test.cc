// Concurrency-substrate and dispatch-determinism tests (PERFORMANCE.md
// §5): thread-pool basics, the event loop's off-thread batching,
// off-thread `behind` completions, and the ablation oracles — the
// compiled-plan, memo and async-federation switches must not change one
// byte of the DOM or the observable output of a dispatch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "browser/bom.h"
#include "browser/event_loop.h"
#include "dispatch_pages.h"
#include "net/http.h"
#include "net/webservice.h"
#include "net/xml_store.h"
#include "plugin/plugin.h"
#include "xml/serializer.h"

namespace xqib {
namespace {

using base::ThreadPool;
using browser::EventLoop;

// ------------------------------------------------------- thread pool ---

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  for (int spin = 0; spin < 5000 && count.load() < 64; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(pool.stats().submitted, 64u);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int count = 0;
  pool.Submit([&count] { ++count; });
  // No threads: the task already ran when Submit returned.
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesAtEveryPoolSize) {
  for (size_t workers : {0u, 1u, 4u}) {
    ThreadPool pool(workers);
    const size_t n = 1000;
    std::vector<std::atomic<int>> marks(n);
    for (auto& m : marks) m.store(0);
    pool.ParallelFor(n, [&](size_t i) {
      marks[i].fetch_add(1, std::memory_order_relaxed);
    });
    size_t sum = 0;
    for (auto& m : marks) sum += static_cast<size_t>(m.load());
    EXPECT_EQ(sum, n) << "workers=" << workers;  // each index exactly once
    EXPECT_EQ(pool.stats().parallel_fors, 1u);
  }
}

TEST(ThreadPoolTest, ParallelForBalancesUnevenWork) {
  // A few expensive indices among many cheap ones: dynamic claiming must
  // still complete everything (a static partition would, too — this
  // guards against lost indices under contention).
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(256, [&](size_t i) {
    uint64_t acc = 0;
    uint64_t reps = (i % 64 == 0) ? 20000 : 50;
    for (uint64_t k = 0; k < reps; ++k) acc += k * k + i;
    total.fetch_add(acc == 0 ? 1 : 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 256u);
}

// ------------------------------------------- event loop, off-thread ---

TEST(EventLoopOffThread, EqualDueEntriesFormOneBatch) {
  EventLoop loop;
  int committed = 0;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.PostOffThread(
        [&committed, &order, i]() -> EventLoop::Task {
          int seen = committed;  // batch-start state: commits not yet run
          return [&committed, &order, i, seen] {
            order.push_back(i * 100 + seen);
            ++committed;
          };
        },
        0.0);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(loop.offthread_tasks(), 8u);
  EXPECT_EQ(loop.offthread_batches(), 1u);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    // Posting order preserved, and every work saw committed == 0.
    EXPECT_EQ(order[static_cast<size_t>(i)], i * 100);
  }
}

TEST(EventLoopOffThread, PlainTaskSplitsTheBatch) {
  EventLoop loop;
  std::vector<std::string> order;
  auto off = [&loop, &order](const std::string& tag) {
    loop.PostOffThread(
        [&order, tag]() -> EventLoop::Task {
          return [&order, tag] { order.push_back(tag); };
        },
        0.0);
  };
  off("A");
  off("B");
  loop.Post([&order] { order.push_back("C"); }, 0.0);
  off("D");
  off("E");
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "C", "D", "E"}));
  // The plain task is a barrier: {A,B} and {D,E} are separate batches.
  EXPECT_EQ(loop.offthread_batches(), 2u);
  EXPECT_EQ(loop.offthread_tasks(), 4u);
}

TEST(EventLoopOffThread, LaterDueTimesNeverJoinTheBatch) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    loop.PostOffThread(
        [&order, i]() -> EventLoop::Task {
          return [&order, i] { order.push_back(i); };
        },
        i < 2 ? 0.0 : 5.0);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.offthread_batches(), 2u);
}

TEST(EventLoopOffThread, WorksRunInPostingOrderBeforeCommits) {
  EventLoop loop;
  std::vector<std::string> log;
  for (int i = 0; i < 3; ++i) {
    loop.PostOffThread(
        [&log, i]() -> EventLoop::Task {
          log.push_back("w" + std::to_string(i));
          return [&log, i] { log.push_back("c" + std::to_string(i)); };
        },
        0.0);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<std::string>{"w0", "w1", "w2", "c0", "c1",
                                           "c2"}));
}

TEST(EventLoopOffThread, PostIsThreadSafe) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&loop, &ran] {
      for (int i = 0; i < 50; ++i) {
        loop.Post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : posters) t.join();
  loop.RunUntilIdle();
  EXPECT_EQ(ran.load(), 200);
}

// -------------------------------------------- plugin dispatch oracle ---

struct DispatchOutcome {
  std::vector<std::string> alerts;
  std::string dom;
};

DispatchOutcome RunDispatchScenario(uint32_t seed, int clicks,
                                    bool compiled_plans) {
  net::HttpFabric fabric;
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  if (!compiled_plans) {
    xquery::Evaluator::EvalOptions options;
    options.compiled_plans = false;
    plugin.set_eval_options(options);
  }
  Status st = browser.top_window()->LoadSource(
      "http://app.example.com/index.xhtml",
      testing_pages::RandomDispatchPage(seed));
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  xml::Node* btn = browser.top_window()->document()->GetElementById("btn");
  EXPECT_NE(btn, nullptr);
  for (int c = 0; c < clicks; ++c) {
    browser::Event e;
    e.type = "onclick";
    plugin.FireEvent(btn, e);
  }
  DispatchOutcome out;
  out.alerts = plugin.alerts();
  out.dom = xml::Serialize(browser.top_window()->document()->root());
  return out;
}

// The compiled-plan ablation: the tree-walking run is the oracle, and
// the plan layer may not change what the page observes.
TEST(DispatchDeterminism, PlanAblationIsUnobservable) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    DispatchOutcome reference =
        RunDispatchScenario(seed, 3, /*compiled_plans=*/false);
    ASSERT_EQ(reference.alerts.size(), 24u) << "seed " << seed;
    DispatchOutcome got = RunDispatchScenario(seed, 3, /*compiled_plans=*/true);
    EXPECT_EQ(got.alerts, reference.alerts) << "seed " << seed;
    EXPECT_EQ(got.dom, reference.dom) << "seed " << seed;
  }
}

// -------------------------------------------- memo ablation oracle ---

// Four buttons. #go runs an alerting tally, two memoizable readers (one
// of <li>, which the updater writes, one of <aside>, which it does not),
// an updater whose computed element name makes its write set ⊤, then a
// second tally and two more readers. The updater only inserts while an
// <armed/> marker exists, which #arm and #disarm toggle, so reader
// entries filled on an unarmed click meet an armed click's mutation
// later: the readers after the updater probe the memo cache right after
// its insert, and #peek runs two readers between #go clicks, so the
// <aside> reader replays through the delta skip while the <li> reader
// re-runs.
std::string MemoOraclePage() {
  std::string script =
      "declare function local:tally($evt, $obj) {\n"
      "  browser:alert(concat(\"t=\", string(count(//li))))\n"
      "};\n"
      "declare function local:tally2($evt, $obj) {\n"
      "  browser:alert(concat(\"u=\", string(count(//li))))\n"
      "};\n"
      "declare function local:li1($evt, $obj) { string(count(//li)) };\n"
      "declare function local:li2($evt, $obj) {\n"
      "  string-join(//li, \",\")\n"
      "};\n"
      "declare function local:aside1($evt, $obj) { string(//aside/@n) };\n"
      "declare function local:aside2($evt, $obj) { count(//aside) };\n"
      "declare updating function local:grow($evt, $obj) {\n"
      "  if (exists(//armed))\n"
      "  then insert node element {concat(\"l\", \"i\")} {\"n\"} "
      "into //ul\n"
      "  else ()\n"
      "};\n"
      "declare updating function local:arm($evt, $obj) {\n"
      "  insert node <armed/> into //aside\n"
      "};\n"
      "declare updating function local:disarm($evt, $obj) {\n"
      "  delete node //armed\n"
      "};\n{ ";
  auto attach = [&script](const char* id, const char* fn) {
    script += std::string("on event \"onclick\" at //input[@id=\"") + id +
              "\"] attach listener local:" + fn + ";\n";
  };
  for (const char* fn : {"tally", "li1", "aside1", "grow", "tally2", "aside2",
                         "li2"}) {
    attach("go", fn);
  }
  attach("peek", "aside1");
  attach("peek", "li1");
  attach("arm", "arm");
  attach("disarm", "disarm");
  script += "() }";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "\n]]></script></head><body>"
         "<input id=\"go\"/><input id=\"peek\"/><input id=\"arm\"/>"
         "<input id=\"disarm\"/><ul><li>a</li></ul><aside n=\"7\"/>"
         "</body></html>";
}

struct MemoOutcome {
  // Observed after every click.
  std::vector<std::string> results;  // last_listener_result()
  std::vector<std::string> doms;
  std::vector<std::string> alerts;
  uint64_t memo_hits = 0;
  uint64_t delta_skips = 0;
};

MemoOutcome RunMemoScenario(bool memo) {
  net::HttpFabric fabric;
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  plugin.set_memo_enabled(memo);
  Status st = browser.top_window()->LoadSource(
      "http://app.example.com/index.xhtml", MemoOraclePage());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  xml::Document* doc = browser.top_window()->document();
  MemoOutcome out;
  for (const char* id : {"go", "peek", "arm", "go", "go", "peek", "disarm",
                         "go", "peek", "go", "arm", "go", "peek"}) {
    xml::Node* target = doc->GetElementById(id);
    EXPECT_NE(target, nullptr) << id;
    browser::Event e;
    e.type = "onclick";
    plugin.FireEvent(target, e);
    EXPECT_TRUE(plugin.last_script_error().ok())
        << plugin.last_script_error().ToString();
    out.results.push_back(plugin.last_listener_result());
    out.doms.push_back(xml::Serialize(doc->root()));
  }
  out.alerts = plugin.alerts();
  out.memo_hits = plugin.memo_stats().hits;
  out.delta_skips = plugin.delta_stats().listeners_skipped;
  return out;
}

// Memo off is the reference: every listener re-runs. The memo cache —
// fresh hits, delta skips and stale re-evaluation — must not change one
// byte the page observes.
TEST(DispatchDeterminism, MemoAblationIsUnobservable) {
  MemoOutcome reference = RunMemoScenario(/*memo=*/false);
  EXPECT_EQ(reference.memo_hits, 0u);
  ASSERT_EQ(reference.alerts.size(), 12u);  // two tallies x six #go clicks
  EXPECT_EQ(reference.results.back(), "4");  // one <li> + three armed #go
  MemoOutcome got = RunMemoScenario(/*memo=*/true);
  EXPECT_EQ(got.results, reference.results);
  EXPECT_EQ(got.doms, reference.doms);
  EXPECT_EQ(got.alerts, reference.alerts);
  // The cache genuinely answered dispatches, some through the delta skip.
  EXPECT_GT(got.memo_hits, 0u);
  EXPECT_GT(got.delta_skips, 0u);
}

// The async-federation ablation: the scatter-off run is the oracle.
// Prefetched futures must carry exactly the bytes the in-line round
// trips would have seen — neither the listener-level scatter nor the
// FLWOR template scatter may change one byte of what the page observes.

std::string FederatedMashupPage() {
  std::string script =
      "declare function local:fan($evt, $obj) {\n"
      "  browser:alert(string-join((\n"
      "    string(http:get(\"http://w0.example.com/api\")//summary),\n"
      "    string(http:get(\"http://w1.example.com/api\")//summary),\n"
      "    string(http:get(\"http://w2.example.com/api\")//summary),\n"
      "    string(http:get(\"http://w3.example.com/api\")//summary)\n"
      "  ), \";\"))\n"
      "};\n"
      "declare function local:loop($evt, $obj) {\n"
      "  browser:alert(string-join(\n"
      "    for $s in (\"0\", \"1\", \"2\", \"3\")\n"
      "    return string(http:get(concat(\"http://w\", $s,\n"
      "        \".example.com/api\"))//summary), \",\"))\n"
      "};\n"
      "{ on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:fan;\n"
      "  on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:loop; () }";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "\n]]></script></head><body>"
         "<input type=\"button\" id=\"btn\" value=\"Go\"/>"
         "</body></html>";
}

struct FederationOutcome {
  std::vector<std::string> alerts;
  std::string dom;
};

FederationOutcome RunFederationScenario(bool async_federation, int clicks) {
  net::HttpFabric fabric;
  for (int s = 0; s < 4; ++s) {
    fabric.PutResource(
        "http://w" + std::to_string(s) + ".example.com/api",
        "<weather><summary>w" + std::to_string(s) + "</summary></weather>");
  }
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  xquery::Evaluator::EvalOptions options;
  options.async_federation = async_federation;
  plugin.set_eval_options(options);
  Status st = browser.top_window()->LoadSource(
      "http://app.example.com/index.xhtml", FederatedMashupPage());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  xml::Node* btn = browser.top_window()->document()->GetElementById("btn");
  EXPECT_NE(btn, nullptr);
  for (int c = 0; c < clicks; ++c) {
    browser::Event e;
    e.type = "onclick";
    plugin.FireEvent(btn, e);
  }
  FederationOutcome out;
  out.alerts = plugin.alerts();
  out.dom = xml::Serialize(browser.top_window()->document()->root());
  return out;
}

TEST(DispatchDeterminism, AsyncFederationIsUnobservable) {
  FederationOutcome reference =
      RunFederationScenario(/*async_federation=*/false, 2);
  ASSERT_EQ(reference.alerts.size(), 4u);  // 2 listeners x 2 clicks
  EXPECT_EQ(reference.alerts[0], "w0;w1;w2;w3");
  EXPECT_EQ(reference.alerts[1], "w0,w1,w2,w3");
  FederationOutcome got = RunFederationScenario(/*async_federation=*/true, 2);
  EXPECT_EQ(got.alerts, reference.alerts);
  EXPECT_EQ(got.dom, reference.dom);
}

// ------------------------------------------- off-thread `behind` ---

class ParallelPluginTest : public ::testing::Test {
 protected:
  ParallelPluginTest()
      : services_(&fabric_, &store_),
        plugin_(&browser_, &fabric_, &services_) {
    plugin_.Install();
  }

  browser::Window* Load(const std::string& source) {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/index.xhtml", source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
    return browser_.top_window();
  }

  void Click(xml::Node* target) {
    browser::Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  browser::Browser browser_;
  plugin::XqibPlugin plugin_;
};

TEST_F(ParallelPluginTest, BehindCompletionRunsOffThread) {
  // A `behind` call to an analyzer-proven parallel-safe local function is
  // delivered as an off-thread unit; the pure completion listener alerts
  // from the commit. Observable result matches the AJAX-suggest
  // behaviour.
  browser::Window* w = Load(R"XQ(<html><head>
      <script type="text/xquery"><![CDATA[
      declare function local:compute($s) { concat("hint for ", $s) };
      declare function local:onResult($readyState, $result) {
        if ($readyState eq 4)
        then browser:alert(string($result))
        else ()
      };
      declare updating function local:go($evt, $obj) {
        on event "stateChanged" behind local:compute("Ann")
        attach listener local:onResult
      };
      on event "onclick" at //input[@id="btn"] attach listener local:go
      ]]></script></head><body>
      <input id="btn"/>
      </body></html>)XQ");
  xml::Node* btn = w->document()->GetElementById("btn");
  ASSERT_NE(btn, nullptr);
  Click(btn);
  plugin_.PumpEvents();
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "hint for Ann");
  // The completion actually went through the off-thread queue.
  EXPECT_GE(browser_.loop().offthread_tasks(), 1u);
  EXPECT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
}

}  // namespace
}  // namespace xqib
