// Concurrency-substrate and dispatch-determinism tests (PERFORMANCE.md
// §5): thread-pool basics, thread-safe posting to the event loop,
// `behind` completions, and the ablation oracles — the memo and
// async-federation switches must not change one byte of the DOM or the
// observable output of a dispatch.

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

// -------------------------------------------------------- event loop ---

TEST(EventLoopTest, PostIsThreadSafe) {
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

DispatchOutcome RunDispatchScenario(uint32_t seed, int clicks, bool memo) {
  net::HttpFabric fabric;
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  plugin.set_memo_enabled(memo);
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

// The memo switch on generated fan-out pages: memo off is the oracle,
// and the memo may not change what the page observes.
TEST(DispatchDeterminism, RandomPagesIgnoreTheMemoSwitch) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    DispatchOutcome reference = RunDispatchScenario(seed, 3, /*memo=*/false);
    ASSERT_EQ(reference.alerts.size(), 24u) << "seed " << seed;
    DispatchOutcome got = RunDispatchScenario(seed, 3, /*memo=*/true);
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
  out.memo_hits = plugin.counters().memo_hits;
  out.delta_skips = plugin.counters().delta_listeners_skipped;
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
  uint64_t prefetch_issued = 0;
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
  out.prefetch_issued = plugin.counters().http_prefetch_issued;
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

// An alert shows the user something but writes no fabric, so local:fan
// scatters its four literal GETs; local:loop's FLWOR scatters its four
// templated ones.
TEST(ListenerScatter, AlertingListenerScattersItsStaticUrls) {
  EXPECT_EQ(RunFederationScenario(/*async_federation=*/true, 2)
                .prefetch_issued,
            16u);  // 2 clicks x (4 + 4)
  EXPECT_EQ(RunFederationScenario(/*async_federation=*/false, 2)
                .prefetch_issued,
            0u);
}

// One listener on #btn over a fabric whose every GET under http://a/
// answers <v>1</v> and is logged in issue order.
class ListenerScatterTest : public ::testing::Test {
 protected:
  ListenerScatterTest()
      : services_(&fabric_, &store_),
        plugin_(&browser_, &fabric_, &services_) {
    fabric_.SetHandler("http://a/", [this](const net::HttpRequest& req) {
      issued_.push_back(req.method + " " + req.url);
      return Result<net::HttpResponse>(net::HttpResponse{200, "<v>1</v>"});
    });
    plugin_.Install();
  }

  // Loads `functions` plus an attach of local:go and clicks once.
  void LoadAndClick(const std::string& functions) {
    const std::string page =
        "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" +
        functions +
        "on event \"onclick\" at //input[@id=\"btn\"] "
        "attach listener local:go\n"
        "]]></script></head><body><input id=\"btn\"/></body></html>";
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/index.xhtml", page);
    ASSERT_TRUE(st.ok()) << st.ToString();
    xml::Node* btn = browser_.top_window()->document()->GetElementById("btn");
    ASSERT_NE(btn, nullptr);
    browser::Event e;
    e.type = "onclick";
    plugin_.FireEvent(btn, e);
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
  }

  uint64_t issued_by_scatter() const {
    return plugin_.counters().http_prefetch_issued;
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  browser::Browser browser_;
  plugin::XqibPlugin plugin_;
  std::vector<std::string> issued_;
};

TEST_F(ListenerScatterTest, FabricWriteThroughAHelperScattersNothing) {
  LoadAndClick(
      "declare function local:save() { http:put(\"http://a/log\", <x/>) };\n"
      "declare function local:go($evt, $obj) {\n"
      "  (string(http:get(\"http://a/one\")//v), local:save())\n"
      "};\n");
  EXPECT_EQ(issued_by_scatter(), 0u);
  EXPECT_EQ(issued_, (std::vector<std::string>{"GET http://a/one",
                                               "PUT http://a/log"}));
}

TEST_F(ListenerScatterTest, FetchFortyCallsDeepScatters) {
  std::string functions;
  for (int i = 0; i < 40; ++i) {
    functions += "declare function local:h" + std::to_string(i) +
                 "() { local:h" + std::to_string(i + 1) + "() };\n";
  }
  functions +=
      "declare function local:h40() { string(http:get(\"http://a/deep\")) };\n"
      "declare function local:go($evt, $obj) { local:h0() };\n";
  LoadAndClick(functions);
  EXPECT_EQ(issued_by_scatter(), 1u);
  EXPECT_EQ(plugin_.counters().http_prefetch_hits, 1u);
  EXPECT_EQ(plugin_.last_listener_result(), "1");
}

TEST_F(ListenerScatterTest, UrlsAreIssuedInDiscoveryOrder) {
  // Depth first: the FLWOR's return before its binding, the helper's
  // argument before the helper's own fetch (the helper is declared after
  // its caller), each URL once.
  LoadAndClick(
      "declare function local:go($evt, $obj) {\n"
      "  string-join(\n"
      "    for $x in http:get(\"http://a/bind\")//v\n"
      "    return (string(http:get(concat(\"http://a/\", \"ret\"))//v),\n"
      "            local:helper(string(http:get(\"http://a/arg\")//v)),\n"
      "            string(http:get(\"http://a/bind\")//v)), \",\")\n"
      "};\n"
      "declare function local:helper($v) {\n"
      "  concat($v, http:get-text(\"http://a/help\"))\n"
      "};\n");
  EXPECT_EQ(issued_by_scatter(), 4u);
  // The four scattered GETs, then the second read of http://a/bind in
  // line: each prefetch satisfies one consumer.
  EXPECT_EQ(issued_, (std::vector<std::string>{
                         "GET http://a/ret", "GET http://a/arg",
                         "GET http://a/help", "GET http://a/bind",
                         "GET http://a/bind"}));
}

TEST_F(ListenerScatterTest, FlworScatterAsksTheSummariesAboutHelpers) {
  // A loop's templated GETs do not scatter when a helper it calls writes
  // the fabric, and do when its helper does not.
  LoadAndClick(
      "declare function local:save() { http:put(\"http://a/log\", <x/>) };\n"
      "declare function local:go($evt, $obj) {\n"
      "  for $s in (\"1\", \"2\")\n"
      "  return (http:get(concat(\"http://a/\", $s)), local:save())\n"
      "};\n");
  EXPECT_EQ(plugin_.counters().http_scatter_batches, 0u);
  EXPECT_EQ(issued_by_scatter(), 0u);
  LoadAndClick(
      "declare function local:read($s) { string($s) };\n"
      "declare function local:go($evt, $obj) {\n"
      "  for $s in (\"1\", \"2\")\n"
      "  return (local:read($s), http:get(concat(\"http://a/\", $s)))\n"
      "};\n");
  EXPECT_EQ(plugin_.counters().http_scatter_batches, 1u);
  EXPECT_EQ(issued_by_scatter(), 2u);
}

// ------------------------------------------------- `behind` calls ---

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

TEST_F(ParallelPluginTest, BehindCallToLocalFunctionDeliversItsResult) {
  // A `behind` call to a pure local function completes as a later task
  // on the loop; the pure completion listener alerts the result at
  // readyState 4. Observable result matches the AJAX-suggest behaviour.
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
  EXPECT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
}

}  // namespace
}  // namespace xqib
