// Seeded test pages shared by the dispatch-determinism oracles
// (parallel_test) and the page server's pool-size oracle (server_test).

#ifndef XQIB_TESTS_DISPATCH_PAGES_H_
#define XQIB_TESTS_DISPATCH_PAGES_H_

#include <cstdint>
#include <string>

namespace xqib::testing_pages {

// Deterministic pseudo-random fan-out page: a data div with LCG-sized
// content, eight pure alerting listeners and one updating listener at an
// LCG-chosen registration slot, all on the onclick of #btn. One click
// raises eight alerts and inserts one item.
inline std::string RandomDispatchPage(uint32_t seed) {
  uint32_t state = seed;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return (state >> 16) & 0x7fff;
  };
  std::string items;
  int n = 10 + static_cast<int>(next() % 20);
  for (int i = 0; i < n; ++i) {
    items += "<item v=\"" + std::to_string(next() % 100) + "\"/>";
  }
  std::string script;
  for (int l = 0; l < 8; ++l) {
    int threshold = static_cast<int>(next() % 100);
    script += "declare function local:p" + std::to_string(l) +
              "($evt, $obj) { browser:alert(concat(\"p" + std::to_string(l) +
              "=\", string(count(//item[@v > " + std::to_string(threshold) +
              "])))) };\n";
  }
  script +=
      "declare updating function local:mut($evt, $obj) {\n"
      "  insert node <item v=\"" + std::to_string(next() % 100) +
      "\"/> into //div[@id=\"data\"]\n"
      "};\n{ ";
  // Attach the 8 pure listeners with the mutator spliced in at a
  // seed-dependent slot.
  int mut_slot = static_cast<int>(next() % 9);
  int attached = 0;
  for (int slot = 0; slot < 9; ++slot) {
    std::string fn = slot == mut_slot
                         ? "local:mut"
                         : "local:p" + std::to_string(attached++);
    script += "on event \"onclick\" at //input[@id=\"btn\"] "
              "attach listener " + fn + ";\n";
  }
  script += "() }";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "\n]]></script></head><body>"
         "<input type=\"button\" id=\"btn\" value=\"Go\"/>"
         "<div id=\"data\">" + items + "</div>"
         "</body></html>";
}

}  // namespace xqib::testing_pages

#endif  // XQIB_TESTS_DISPATCH_PAGES_H_
