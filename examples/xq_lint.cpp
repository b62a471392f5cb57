// xq_lint — static checker for XQuery page scripts (and bare queries).
//
//   $ ./build/examples/xq_lint examples/pages/multiplication_table_xquery.xhtml
//   $ ./build/examples/xq_lint --json broken_page.xhtml
//   $ echo 'declare variable $x := 1; $y' | ./build/examples/xq_lint -
//
// Runs the same multi-pass analyzer the browser plug-in runs at page
// load (scope/type/update/lint; diagnostics XQSA001-XQSA032, see
// docs/LANGUAGE.md "Static diagnostics"), so a page that lints clean
// here will not be rejected by the plug-in.
//
// Exit codes: 0 = clean (or warnings only), 1 = errors (or warnings
// with --werror), 2 = usage / unreadable input.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/environment.h"
#include "xquery/analysis/lint.h"

using xqib::xquery::analysis::LintReport;

namespace {

struct CliOptions {
  bool json = false;
  bool werror = false;
  bool effects = false;  // dump per-function read/write sets instead
  std::vector<std::string> files;
};

bool ReadInput(const std::string& name, std::string* out) {
  if (name == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    *out = buf.str();
    return true;
  }
  std::ifstream in(name);
  if (in.good()) {
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
  }
  // Bare page names resolve against the shared examples/pages corpus.
  auto page = xqib::app::ReadPageFile(name);
  if (page.ok()) {
    *out = std::move(*page);
    return true;
  }
  return false;
}

bool IsXhtml(const std::string& name, const std::string& content) {
  for (const char* ext : {".xhtml", ".html", ".htm", ".xml"}) {
    if (name.size() > std::strlen(ext) &&
        name.compare(name.size() - std::strlen(ext), std::string::npos,
                     ext) == 0) {
      return true;
    }
  }
  // stdin: sniff for markup.
  size_t start = content.find_first_not_of(" \t\r\n");
  return start != std::string::npos && content[start] == '<';
}

int Usage() {
  std::fprintf(stderr,
               "usage: xq_lint [--json] [--werror] [--effects] "
               "<file.xhtml|file.xq|->...\n"
               "  --effects  dump the effect analysis (per-function "
               "read/write sets)\n             instead of diagnostics "
               "(text output; --json takes precedence)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "--effects") {
      options.effects = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-' && arg != "-") {
      return Usage();
    } else {
      options.files.push_back(std::move(arg));
    }
  }
  if (options.files.empty()) return Usage();

  bool any_errors = false;
  bool any_warnings = false;
  bool json_first = true;
  if (options.json) std::printf("[");
  for (const std::string& file : options.files) {
    std::string content;
    if (!ReadInput(file, &content)) {
      std::fprintf(stderr, "xq_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    LintReport report;
    if (IsXhtml(file, content)) {
      auto r = xqib::xquery::analysis::LintXhtml(content);
      if (!r.ok()) {
        std::fprintf(stderr, "xq_lint: %s: %s\n", file.c_str(),
                     r.status().ToString().c_str());
        return 2;
      }
      report = std::move(*r);
    } else {
      report = xqib::xquery::analysis::LintQuery(content);
    }
    any_errors = any_errors || report.has_errors();
    any_warnings = any_warnings || report.has_warnings();
    if (options.json) {
      if (!json_first) std::printf(",");
      json_first = false;
      std::printf("{\"file\":\"%s\",\"units\":%s}", file.c_str(),
                  report.ToJson().c_str());
    } else if (options.effects) {
      for (const std::string& line : report.RenderEffects()) {
        std::printf("%s: %s\n", file.c_str(), line.c_str());
      }
    } else {
      for (const std::string& line : report.RenderAll()) {
        std::printf("%s: %s\n", file.c_str(), line.c_str());
      }
    }
  }
  if (options.json) std::printf("]\n");
  if (any_errors || (options.werror && any_warnings)) return 1;
  return 0;
}
