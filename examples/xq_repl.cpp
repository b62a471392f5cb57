// xq_repl: a small command-line XQuery processor over the XQIB engine —
// handy for exploring the dialect this repository implements (XPath 2.0
// core, FLWOR, constructors, updates, scripting).
//
//   $ ./build/examples/xq_repl '1 + 2 * 3'
//   $ ./build/examples/xq_repl -d catalog.xml 'count(//item)'
//   $ echo 'for $i in 1 to 3 return <n>{$i}</n>' | ./build/examples/xq_repl
//   $ ./build/examples/xq_repl -p 'sum(1 to 1000)'   # with profile
//   $ ./build/examples/xq_repl            # interactive: one query/line

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "app/environment.h"
#include "base/strings.h"
#include "server/server.h"
#include "xml/interning.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/counters.h"
#include "xquery/engine.h"
#include "xquery/plan/plan.h"
#include "xquery/profiler.h"

using namespace xqib;  // NOLINT(build/namespaces) example code

namespace {

void PrintResult(const xdm::Sequence& result) {
  for (size_t i = 0; i < result.size(); ++i) {
    if (i > 0) std::printf(" ");
    const xdm::Item& item = result[i];
    if (item.is_node()) {
      std::printf("%s", xml::Serialize(item.node()).c_str());
    } else {
      std::printf("%s", item.atomic().ToXPathString().c_str());
    }
  }
  std::printf("\n");
}

// Counters accumulated across every query this process ran: the
// interactive loop recompiles per line, so each run's evaluator set is
// added here and `:counters` prints the sum.
xquery::Counters g_session_counters;

// Prints every dispatch counter that moved, with its meaning.
void PrintCounters(const xquery::Counters& counters) {
  counters.ForEach([](const char* name, const char* meaning,
                      const auto& value) {
    if (value == 0) return;
    std::ostringstream shown;
    shown << value;
    std::printf("  %-30s %12s  %s\n", name, shown.str().c_str(), meaning);
  });
}

// `:http [fabric]` — federation stats. Prints a fabric's two clock
// views (latency sum vs makespan, overlap, in-flight peak) and the
// process-wide response cache with its per-URL hit/miss table.
void PrintHttpStats(const net::HttpFabric* fabric) {
  std::printf("--- http federation ---\n");
  if (fabric != nullptr) {
    const net::HttpFabric::Stats& fs = fabric->stats();
    std::printf("  fabric: %llu requests, %llu bytes, %.1f ms latency sum, "
                "%.1f ms makespan, %.1f ms overlapped, %llu in-flight peak\n",
                (unsigned long long)fs.requests,
                (unsigned long long)fs.bytes_served,
                (double)fs.simulated_latency_ms, (double)fs.makespan_ms,
                (double)fs.overlapped_ms,
                (unsigned long long)fs.inflight_peak);
    std::printf("  fabric cache traffic: %llu hits, %llu misses\n",
                (unsigned long long)fs.cache_hits,
                (unsigned long long)fs.cache_misses);
  }
  net::HttpResponseCache& cache = *net::HttpResponseCache::Global();
  net::HttpResponseCache::Stats rc = cache.stats();
  std::printf("  response cache: %llu entries, ttl %.0f ms, %llu hits, "
              "%llu misses, %llu inserts, %llu invalidations, "
              "%llu expirations\n",
              (unsigned long long)cache.size(), cache.ttl_ms(),
              (unsigned long long)rc.hits, (unsigned long long)rc.misses,
              (unsigned long long)rc.inserts,
              (unsigned long long)rc.invalidations,
              (unsigned long long)rc.expirations);
  for (const auto& [url, st] : cache.UrlStatsSnapshot()) {
    std::printf("    %s: %llu hits, %llu misses\n", url.c_str(),
                (unsigned long long)st.hits, (unsigned long long)st.misses);
  }
}

// `:http <page-file> [n [events [target-id]]]` — hosts the page on a
// demo page server (same harness as `:sessions`), fires the events, and
// dumps the backend fabric + shared response cache afterwards: the
// second session onward should answer its GETs from the cache.
int RunHttp(const std::string& args) {
  if (args.empty()) {
    PrintHttpStats(nullptr);
    return 0;
  }
  std::istringstream in(args);
  std::string page_file, target_id = "laptop";
  int sessions = 2, events = 3;
  in >> page_file >> sessions >> events >> target_id;
  auto page = app::ReadPageFile(page_file);
  if (!page.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", page_file.c_str(),
                 page.status().ToString().c_str());
    return 1;
  }
  server::PageServer server;
  server.backend().PutResource(
      "http://shop.example.com/products.xml",
      "<products>"
      "<product><name>laptop</name><price>1200</price></product>"
      "<product><name>mouse</name><price>25</price></product>"
      "<product><name>keyboard</name><price>49</price></product>"
      "</products>");
  for (int s = 0; s < std::max(sessions, 1); ++s) {
    auto session = server.CreateSessionFromSource(
        "http://shop.example.com/page.xhtml", *page);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    for (int e = 0; e < events; ++e) {
      server::SessionEvent ev;
      ev.target_id = target_id;
      (*session)->Submit(ev);
    }
  }
  server.DrainAll();
  PrintHttpStats(&server.backend());
  return 0;
}

// `:sessions` — shared-substrate stats (intern pool, plan cache);
// `:sessions <page-file> [n [events [target-id]]]` additionally hosts
// `n` copies of the page on a demo PageServer, fires `events` clicks at
// `target-id` per session, and dumps the per-session report.
int RunSessions(const std::string& args) {
  std::istringstream in(args);
  std::string page_file, target_id = "laptop";
  int sessions = 2, events = 3;
  in >> page_file >> sessions >> events >> target_id;
  if (!page_file.empty()) {
    auto page = app::ReadPageFile(page_file);
    if (!page.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", page_file.c_str(),
                   page.status().ToString().c_str());
      return 1;
    }
    server::PageServer server;
    server.backend().PutResource(
        "http://shop.example.com/products.xml",
        "<products>"
        "<product><name>laptop</name><price>1200</price></product>"
        "<product><name>mouse</name><price>25</price></product>"
        "<product><name>keyboard</name><price>49</price></product>"
        "</products>");
    for (int s = 0; s < std::max(sessions, 1); ++s) {
      auto session = server.CreateSessionFromSource(
          "http://shop.example.com/page.xhtml", *page);
      if (!session.ok()) {
        std::fprintf(stderr, "session: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      for (int e = 0; e < events; ++e) {
        server::SessionEvent ev;
        ev.target_id = target_id;
        (*session)->Submit(ev);
      }
    }
    server.DrainAll();
    std::printf("%s", server.FormatSessionsReport().c_str());
    return 0;
  }
  xml::InternPoolStats intern = xml::GetInternStats();
  std::printf("--- shared substrate ---\n");
  std::printf("  intern pool: %llu hits, %llu misses, %llu strings, "
              "%llu names\n",
              (unsigned long long)intern.hits,
              (unsigned long long)intern.misses,
              (unsigned long long)intern.strings,
              (unsigned long long)intern.names);
  xquery::plan::PlanCache& cache = xquery::plan::PlanCache::Global();
  xquery::plan::PlanCache::Stats plans = cache.stats();
  std::printf("  plan cache: %llu entries, %llu hits, %llu misses, "
              "%llu invalidations, %llu compiles kept, %llu bytes\n",
              (unsigned long long)cache.size(),
              (unsigned long long)plans.hits,
              (unsigned long long)plans.misses,
              (unsigned long long)plans.invalidations,
              (unsigned long long)plans.inserts,
              (unsigned long long)plans.resident_bytes);
  return 0;
}

int RunQuery(const std::string& query, xml::Document* context_doc,
             bool print_doc_after, bool profile) {
  // `:plan <query>` dumps the compiled bytecode plans of the query's
  // user-declared functions instead of evaluating it; `:counters` dumps
  // the counters accumulated by every query run so far.
  std::string trimmed(TrimWhitespace(query));
  if (trimmed == ":counters") {
    std::printf("--- session counters ---\n");
    PrintCounters(g_session_counters);
    if (context_doc != nullptr) {
      std::printf("  document: %llu index builds, %llu index splices, "
                  "%llu rebuilds avoided, %llu order rebuilds\n",
                  (unsigned long long)context_doc->name_index_builds(),
                  (unsigned long long)context_doc->index_splices(),
                  (unsigned long long)context_doc->bucket_rebuilds_avoided(),
                  (unsigned long long)context_doc->order_rebuilds());
    }
    return 0;
  }
  if (trimmed.rfind(":sessions", 0) == 0) {
    return RunSessions(std::string(TrimWhitespace(trimmed.substr(9))));
  }
  if (trimmed.rfind(":http", 0) == 0) {
    return RunHttp(std::string(TrimWhitespace(trimmed.substr(5))));
  }
  if (trimmed.rfind(":plan", 0) == 0) {
    auto dump = xquery::plan::DumpPlansForQuery(
        std::string(TrimWhitespace(trimmed.substr(5))));
    if (!dump.ok()) {
      std::fprintf(stderr, "compile error: %s\n",
                   dump.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", dump->c_str());
    return 0;
  }
  xquery::Engine engine;
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  xquery::DynamicContext ctx;
  if (context_doc != nullptr) {
    xquery::DynamicContext::Focus f;
    f.item = xdm::Item::Node(context_doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  xquery::Profiler profiler;
  if (profile) ctx.profiler = &profiler;
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) {
    std::fprintf(stderr, "error: %s\n", bound.ToString().c_str());
    return 1;
  }
  auto result = (*compiled)->Run(ctx);
  g_session_counters += (*compiled)->evaluator().counters();
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintResult(*result);
  if (profile) {
    std::printf("--- profile (hottest expressions by self time) ---\n%s",
                profiler.Report(15).c_str());
    std::printf("--- counters this query moved ---\n");
    PrintCounters((*compiled)->evaluator().counters());
  }
  if (print_doc_after && context_doc != nullptr) {
    std::printf("--- document after updates ---\n%s\n",
                xml::Serialize(context_doc->root(), {.indent = true})
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<xml::Document> context_doc;
  bool show_doc = false;
  bool profile = false;
  std::string query;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-d" && i + 1 < argc) {
      std::ifstream in(argv[++i]);
      if (!in.good()) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      auto parsed = xml::ParseDocument(buf.str());
      if (!parsed.ok()) {
        std::fprintf(stderr, "XML error: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      context_doc = std::move(parsed).value();
      // Structured index maintenance for the session document, so
      // repeated queries after updates splice buckets instead of
      // rebuilding them — `:counters` shows the effect.
      context_doc->set_delta_tracking(true);
      show_doc = true;
    } else if (arg == "-p" || arg == "--profile") {
      profile = true;
    } else if (arg == "-h" || arg == "--help") {
      std::printf("usage: xq_repl [-d context.xml] [-p] [query]\n"
                  "Without a query argument, reads queries from stdin "
                  "(one per line\nwhen interactive, whole input when "
                  "piped).\n-p prints each query's hottest expressions "
                  "by self time and the\ndispatch counters it moved.\n"
                  "A query of the form ':plan <query>' dumps "
                  "the compiled bytecode plans\nof the query's "
                  "user-declared functions instead of evaluating it.\n"
                  "A query of ':counters' prints every dispatch counter "
                  "(src/xquery/counters.h)\nthat moved across the "
                  "session, one per line with its meaning, plus the\n"
                  "context document's index counters.\n"
                  "A query of ':sessions' dumps the shared-substrate "
                  "stats (intern pool,\nplan cache); ':sessions "
                  "<page-file> [n [events [target-id]]]' hosts n\ncopies "
                  "of the page on a demo page server, fires the events, "
                  "and dumps\nthe per-session report.\n"
                  "A query of ':http' dumps the shared HTTP response "
                  "cache (per-URL\nhits/misses included); ':http "
                  "<page-file> [n [events [target-id]]]'\nruns the page-"
                  "server demo first and adds the backend fabric's "
                  "stats\n(latency sum vs makespan, overlap, in-flight "
                  "peak).\n");
      return 0;
    } else {
      if (!query.empty()) query += " ";
      query += arg;
    }
  }

  if (!query.empty()) {
    return RunQuery(query, context_doc.get(), show_doc, profile);
  }

  // stdin mode: interactive line-by-line, or the whole pipe at once.
  if (isatty(0)) {
    std::printf("xq> ");
    std::string line;
    int rc = 0;
    while (std::getline(std::cin, line)) {
      if (!TrimWhitespace(line).empty()) {
        rc = RunQuery(line, context_doc.get(), false, profile);
      }
      std::printf("xq> ");
    }
    std::printf("\n");
    return rc;
  }
  std::ostringstream buf;
  buf << std::cin.rdbuf();
  return RunQuery(buf.str(), context_doc.get(), show_doc, profile);
}
