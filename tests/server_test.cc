// Multi-tenant page server tests (PERFORMANCE.md §9, DESIGN.md "Server
// architecture"): session lifecycle and event dispatch, the HTTP front
// end, the isolation split (sessions never share each other's memo
// entries or DOMs), racing sessions on the
// shared pool (the TSan target), pool-size independence of one
// session's dispatches, and per-service web-service serialization.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "dispatch_pages.h"
#include "net/http.h"
#include "net/webservice.h"
#include "net/xml_store.h"
#include "server/server.h"
#include "xml/xml_parser.h"
#include "xdm/item.h"

namespace xqib {
namespace {

using server::PageServer;
using server::Session;
using server::SessionEvent;

constexpr const char* kProductsUrl = "http://shop.example.com/products.xml";
constexpr const char* kProducts =
    "<products>"
    "<product><name>laptop</name><price>1200</price></product>"
    "<product><name>mouse</name><price>25</price></product>"
    "<product><name>keyboard</name><price>49</price></product>"
    "</products>";

// The paper's §6.3 shopping cart, inlined so the tests don't depend on
// the examples/pages directory.
constexpr const char* kCartPage =
    "<html><head><script type=\"text/xqueryp\"><![CDATA[\n"
    "declare updating function local:buy($evt, $obj) {\n"
    "  insert node <p>{string($obj/@id)}</p> as first\n"
    "    into //div[@id=\"shoppingcart\"]\n"
    "};\n"
    "insert node\n"
    "  <div id=\"productlist\">{\n"
    "    for $p in http:get(\"http://shop.example.com/products.xml\")"
    "//product\n"
    "    return <div>{string($p/name)}"
    "      <input type=\"button\" value=\"Buy\" id=\"{$p/name}\"/>\n"
    "    </div>\n"
    "  }</div>\n"
    "  into /html/body;\n"
    "on event \"onclick\" at //div[@id=\"productlist\"]//input\n"
    "  attach listener local:buy\n"
    "]]></script>\n"
    "</head><body>\n"
    "<div id=\"shoppingcart\"/>\n"
    "</body></html>";

std::unique_ptr<PageServer> MakeCartServer(size_t workers) {
  PageServer::Options options;
  options.workers = workers;
  auto srv = std::make_unique<PageServer>(options);
  srv->backend().PutResource(kProductsUrl, kProducts);
  return srv;
}

SessionEvent Buy(const std::string& id) {
  SessionEvent ev;
  ev.target_id = id;
  return ev;
}

// ----------------------------------------------------------- smoke ---

TEST(ServerSmoke, SessionDispatchUpdatesDom) {
  auto srv = MakeCartServer(0);
  auto session = srv->CreateSessionFromSource(
      "http://shop.example.com/cart.xhtml", kCartPage);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(srv->session_count(), 1u);
  EXPECT_EQ((*session)->id(), "s1");

  Status seen;
  ASSERT_TRUE(srv->SubmitEvent("s1", Buy("laptop"),
                               [&](const Status& st, double) { seen = st; })
                  .ok());
  srv->DrainAll();
  EXPECT_TRUE(seen.ok()) << seen.ToString();
  std::string dom = (*session)->SerializeDom();
  EXPECT_NE(dom.find("<p>laptop</p>"), std::string::npos) << dom;
  Session::StatsSnapshot stats = (*session)->stats();
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServerSmoke, MissingTargetIsAnErrorNotAFatality) {
  auto srv = MakeCartServer(0);
  auto session = srv->CreateSessionFromSource(
      "http://shop.example.com/cart.xhtml", kCartPage);
  ASSERT_TRUE(session.ok());

  Status seen;
  (*session)->Submit(Buy("no-such-button"),
                     [&](const Status& st, double) { seen = st; });
  srv->DrainAll();
  EXPECT_EQ(seen.code(), "SRVR0404");
  EXPECT_EQ((*session)->stats().errors, 1u);

  // The session survives: the next event dispatches normally.
  (*session)->Submit(Buy("mouse"));
  srv->DrainAll();
  EXPECT_NE((*session)->SerializeDom().find("<p>mouse</p>"),
            std::string::npos);
}

TEST(ServerSmoke, UnknownSessionAndCloseLifecycle) {
  auto srv = MakeCartServer(0);
  EXPECT_EQ(srv->SubmitEvent("s999", Buy("laptop")).code(), "SRVR0404");
  auto session = srv->CreateSessionFromSource(
      "http://shop.example.com/cart.xhtml", kCartPage);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(srv->CloseSession((*session)->id()).ok());
  EXPECT_EQ(srv->session_count(), 0u);
  EXPECT_EQ(srv->SubmitEvent((*session)->id(), Buy("laptop")).code(),
            "SRVR0404");
  EXPECT_EQ(srv->CloseSession((*session)->id()).code(), "SRVR0404");
}

TEST(ServerSmoke, HttpFrontEndRoundTrip) {
  auto srv = MakeCartServer(0);
  srv->InstallHttpFrontEnd(&srv->backend(), "http://server.local");
  net::HttpFabric& web = srv->backend();

  // Create from posted page source.
  auto created = web.Perform(
      {"POST", "http://server.local/sessions", kCartPage});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->status, 201);
  EXPECT_EQ(created->body, "<session id=\"s1\"/>");

  // Fire an event; the response is synchronous and carries latency.
  auto fired = web.Perform({"POST", "http://server.local/sessions/s1/events",
                            "<event type=\"onclick\" target=\"keyboard\"/>"});
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(fired->status, 200);
  EXPECT_NE(fired->body.find("<ok latency-us="), std::string::npos);

  // The DOM endpoint shows the click's effect.
  auto dom = web.Get("http://server.local/sessions/s1/dom");
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(dom->status, 200);
  EXPECT_NE(dom->body.find("<p>keyboard</p>"), std::string::npos);

  // The report lists the session and the shared substrate.
  auto report = web.Get("http://server.local/sessions");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->body.find("s1: url="), std::string::npos);
  EXPECT_NE(report->body.find("intern pool:"), std::string::npos);
  // The click's constructions and parsed responses died with it: the
  // session holds nothing beyond its page.
  EXPECT_NE(report->body.find(" retained=0 docs/0 nodes\n"),
            std::string::npos)
      << report->body;

  // Error mapping: bad event body, unknown session, then close.
  auto bad = web.Perform({"POST", "http://server.local/sessions/s1/events",
                          "<event type=\"onclick\"/>"});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  auto missing = web.Get("http://server.local/sessions/s404/dom");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto closed = web.Perform(
      {"POST", "http://server.local/sessions/s1/close", ""});
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->status, 200);
  EXPECT_EQ(srv->session_count(), 0u);
}

TEST(ServerSmoke, ErrorBodiesEscapeRequestText) {
  // Paths and session ids reach the <error> body verbatim in meaning:
  // every body parses, and its text is the original request text.
  auto srv = MakeCartServer(0);
  srv->InstallHttpFrontEnd(&srv->backend(), "http://xqib.server");
  net::HttpFabric& web = srv->backend();
  for (const std::string hostile : {"a<b", "x&y", "nope<", "]]>", "&amp;"}) {
    for (const std::string& url :
         {"http://xqib.server/sessions/" + hostile + "/dom",
          "http://xqib.server/" + hostile}) {
      auto response = web.Get(url);
      ASSERT_TRUE(response.ok()) << url;
      EXPECT_EQ(response->status, 404) << url;
      auto body = xml::ParseDocument(response->body);
      ASSERT_TRUE(body.ok()) << response->body;
      const xml::Node* error = (*body)->DocumentElement();
      ASSERT_NE(error, nullptr);
      EXPECT_NE(error->StringValue().find(hostile), std::string::npos)
          << error->StringValue();
    }
  }
  // A malformed event body: the parse error quotes it back.
  auto created = web.Perform(
      {"POST", "http://xqib.server/sessions", kCartPage});
  ASSERT_TRUE(created.ok());
  auto bad = web.Perform(
      {"POST", "http://xqib.server/sessions/s1/events", "<event a=\"<&\""});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  auto body = xml::ParseDocument(bad->body);
  ASSERT_TRUE(body.ok()) << bad->body;
  EXPECT_NE((*body)->DocumentElement()->StringValue().find("event body:"),
            std::string::npos);
}

// -------------------------------------------------------- isolation ---

TEST(ServerIsolation, MemoEntriesStayPerSession) {
  // A pure, memoizable listener: within one session the second click
  // is a memo hit; a fresh session must miss — the cache is state of
  // the session's plugin, never shared.
  const std::string page =
      "<html><head><script type=\"text/xqueryp\"><![CDATA[\n"
      "declare function local:pure($evt, $obj) {\n"
      "  concat(\"n=\", string(count(//item)))\n"
      "};\n"
      "on event \"onclick\" at //input[@id=\"btn\"]\n"
      "  attach listener local:pure\n"
      "]]></script></head><body>"
      "<input id=\"btn\"/><item/><item/></body></html>";

  auto srv = MakeCartServer(0);
  auto a = srv->CreateSessionFromSource("http://app.example.com/m.xhtml",
                                        page);
  auto b = srv->CreateSessionFromSource("http://app.example.com/m.xhtml",
                                        page);
  ASSERT_TRUE(a.ok() && b.ok());

  (*a)->Submit(Buy("btn"));
  (*a)->Submit(Buy("btn"));
  srv->DrainAll();
  EXPECT_GE((*a)->plugin().counters().memo_misses, 1u);
  EXPECT_GE((*a)->plugin().counters().memo_hits, 1u);

  // B fires the byte-identical listener on the byte-identical DOM; if
  // memo entries leaked across sessions this would be a hit.
  (*b)->Submit(Buy("btn"));
  srv->DrainAll();
  EXPECT_GE((*b)->plugin().counters().memo_misses, 1u);
  EXPECT_EQ((*b)->plugin().counters().memo_hits, 0u);
}

TEST(ServerIsolation, DomMutationsNeverCrossSessions) {
  auto srv = MakeCartServer(0);
  auto a = srv->CreateSessionFromSource(
      "http://shop.example.com/cart.xhtml", kCartPage);
  auto b = srv->CreateSessionFromSource(
      "http://shop.example.com/cart.xhtml", kCartPage);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string b_before = (*b)->SerializeDom();

  for (int i = 0; i < 3; ++i) (*a)->Submit(Buy("laptop"));
  srv->DrainAll();

  EXPECT_NE((*a)->SerializeDom().find("<p>laptop</p>"), std::string::npos);
  EXPECT_EQ((*b)->SerializeDom(), b_before);
  EXPECT_EQ((*b)->stats().dispatched, 0u);
}

// --------------------------------------------------- racing sessions ---

// The TSan target: many sessions racing on the shared pool, then every
// DOM compared byte-for-byte against the serial run. Exercises the
// shared intern pool, backend fabric, and pool queues from
// concurrent session strands.
TEST(ServerRacing, ConcurrentSessionsMatchSerialDoms) {
  constexpr size_t kSessions = 6;
  constexpr int kEvents = 25;
  constexpr const char* kIds[] = {"laptop", "mouse", "keyboard"};

  auto run = [&](size_t workers) {
    auto srv = MakeCartServer(workers);
    std::vector<std::shared_ptr<Session>> sessions;
    for (size_t s = 0; s < kSessions; ++s) {
      auto created = srv->CreateSessionFromSource(
          "http://shop.example.com/cart.xhtml", kCartPage);
      EXPECT_TRUE(created.ok()) << created.status().ToString();
      sessions.push_back(*created);
    }
    // Per-session FIFO: submission order is dispatch order, so the
    // same scripts must yield the same DOMs at any pool size.
    for (int e = 0; e < kEvents; ++e) {
      for (size_t s = 0; s < kSessions; ++s) {
        sessions[s]->Submit(Buy(kIds[(s + static_cast<size_t>(e)) % 3]));
      }
    }
    srv->DrainAll();
    std::vector<std::string> doms;
    for (auto& session : sessions) {
      EXPECT_EQ(session->stats().dispatched,
                static_cast<uint64_t>(kEvents));
      EXPECT_EQ(session->stats().errors, 0u);
      Status invariants =
          session->browser().top_window()->document()->CheckInvariants();
      EXPECT_TRUE(invariants.ok())
          << invariants.ToString() << " at pool " << workers;
      doms.push_back(session->SerializeDom());
    }
    return doms;
  };

  std::vector<std::string> serial = run(0);
  for (size_t workers : {2u, 4u}) {
    std::vector<std::string> pooled = run(workers);
    ASSERT_EQ(pooled.size(), serial.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(pooled[s], serial[s])
          << "session " << s << " diverged at pool " << workers;
    }
  }
}

// The seeded fan-out page (eight pure alerting listeners and one
// updater, all on one button) dispatched through the server at every
// pool size. A session is one serial strand: the pool decides which
// thread runs a drain, never what the page observes, and the document's
// order keys and name index stay consistent at every pool size.
TEST(ServerDeterminism, PoolSizeIsUnobservable) {
  struct Outcome {
    std::string dom;
    std::string last_result;
    uint64_t alerts = 0;
  };
  auto run = [](size_t workers, uint32_t seed) {
    PageServer::Options options;
    options.workers = workers;
    PageServer srv(options);
    auto session = srv.CreateSessionFromSource(
        "http://app.example.com/index.xhtml",
        testing_pages::RandomDispatchPage(seed));
    Outcome out;
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    if (!session.ok()) return out;
    SessionEvent click;
    click.target_id = "btn";
    for (int c = 0; c < 3; ++c) (*session)->Submit(click);
    srv.DrainAll();
    EXPECT_EQ((*session)->stats().errors, 0u);
    Status invariants =
        (*session)->browser().top_window()->document()->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.ToString() << " seed " << seed
                                 << " workers " << workers;
    out.dom = (*session)->SerializeDom();
    out.last_result = (*session)->plugin().last_listener_result();
    out.alerts = (*session)->stats().alerts;
    return out;
  };
  for (uint32_t seed : {1u, 7u, 42u}) {
    const Outcome reference = run(0, seed);
    EXPECT_EQ(reference.alerts, 24u) << "seed " << seed;  // 8 x 3 clicks
    for (size_t workers : {1u, 4u, 8u}) {
      const Outcome got = run(workers, seed);
      EXPECT_EQ(got.dom, reference.dom)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(got.last_result, reference.last_result)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(got.alerts, reference.alerts)
          << "seed " << seed << " workers " << workers;
    }
  }
}

// ------------------------------------------------- web services ---

// PR 9 scoped web-service serialization per deployed service (it was
// host-global): concurrent invokes of two services must both be safe
// and correct. Under TSan this also proves the per-service mutex
// actually covers the evaluator.
TEST(ServerRacing, WebServiceInvokesSerializePerService) {
  net::HttpFabric fabric;
  net::XmlStore store;
  net::ServiceHost host(&fabric, &store);
  ASSERT_TRUE(host.Deploy("module namespace ma=\"urn:ma\" port:2001;\n"
                          "declare function ma:mul($a, $b) { $a * $b };",
                          "a.example.com")
                  .ok());
  ASSERT_TRUE(host.Deploy("module namespace mb=\"urn:mb\" port:2002;\n"
                          "declare function mb:add($a, $b) { $a + $b };",
                          "b.example.com")
                  .ok());

  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const bool use_a = t % 2 == 0;
      xml::QName fn = use_a ? xml::QName("urn:ma", "ma", "mul")
                            : xml::QName("urn:mb", "mb", "add");
      for (int i = 0; i < 50; ++i) {
        auto r = host.Invoke(use_a ? "urn:ma" : "urn:mb", fn,
                             {xdm::Sequence{xdm::Item::Integer(i)},
                              xdm::Sequence{xdm::Item::Integer(3)}});
        const std::string want =
            std::to_string(use_a ? i * 3 : i + 3);
        if (!r.ok() || xdm::SequenceToString(*r) != want) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace xqib
