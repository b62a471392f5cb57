// What a dispatch builds dies with it (DESIGN.md "DOM node storage"):
// exact counts, no timing. Every page is clicked 10 and then 1,000
// times; the plug-in must keep the same non-page documents and nodes
// after both, and none at all while no global holds a constructed node.
// The root cases check that whatever a root still reaches survives the
// release intact: run under ASan, a released node read later fails.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "app/elsevier.h"
#include "app/environment.h"
#include "plugin/plugin.h"

namespace xqib {
namespace {

using app::BrowserEnvironment;
using plugin::XqibPlugin;

std::string QueryParam(const std::string& url) {
  size_t pos = url.find("?q=");
  return pos == std::string::npos ? "" : url.substr(pos + 3);
}

// One page: how to deploy what it fetches, load it, and fire click i.
struct PageCase {
  const char* name;
  std::function<Status(BrowserEnvironment&)> load;
  std::function<Status(BrowserEnvironment&, int)> click;
};

Status LoadExample(BrowserEnvironment& env, const char* file,
                   const std::string& url) {
  XQ_ASSIGN_OR_RETURN(std::string source, app::ReadPageFile(file));
  return env.LoadPage(url, source);
}

std::function<Status(BrowserEnvironment&, int)> ClickCycle(
    std::vector<std::string> ids) {
  return [ids](BrowserEnvironment& env, int i) {
    return env.ClickId(ids[static_cast<size_t>(i) % ids.size()]);
  };
}

constexpr const char* kProducts =
    "<products>"
    "<product><name>laptop</name><price>1200</price></product>"
    "<product><name>mouse</name><price>25</price></product>"
    "<product><name>keyboard</name><price>49</price></product>"
    "</products>";

// The benchmark's cart page (Section 6.3): one updating and two
// memoizable listeners.
constexpr const char* kCartPage = R"(<html><head>
<script type="text/xqueryp"><![CDATA[
declare updating function local:buy($evt, $obj) {
  insert node <p>{string($obj/@id)}</p> as first
    into //div[@id="shoppingcart"]
};
declare function local:cartSize($evt, $obj) {
  count(//div[@id="shoppingcart"]/p)
};
declare function local:catalogTotal($evt, $obj) {
  sum(//ul[@id="catalog"]/li/@price)
};
insert node
  <div id="productlist">{
    for $p in http:get("http://shop.example.com/products.xml")//product
    return <div>{string($p/name)} ({string($p/price)} EUR)
      <input type="button" value="Buy" id="{$p/name}"/>
    </div>
  }</div>
  into /html/body;
insert node
  <ul id="catalog">{
    for $p in http:get("http://shop.example.com/products.xml")//product
    return <li price="{$p/price}">{string($p/name)}</li>
  }</ul>
  into /html/body;
on event "onclick" at //div[@id="productlist"]//input
  attach listener local:buy;
on event "onclick" at //input[@id="show-cart"]
  attach listener local:cartSize;
on event "onclick" at //input[@id="show-catalog"]
  attach listener local:catalogTotal
]]></script>
</head><body>
<p><input type="button" id="show-cart" value="Cart"/>
<input type="button" id="show-catalog" value="Catalog"/></p>
<div id="shoppingcart"/>
</body></html>)";

// The benchmark's mash-up (Figure 3): a MiniJS and an XQuery listener on
// one click; the XQuery one fans out to 6 weather and 2 webcam sources.
std::string MashupPage() {
  std::string urls;
  for (int s = 0; s < 8; ++s) {
    if (s > 0) urls += ",\n        ";
    urls += "concat(\"http://src" + std::to_string(s) +
            ".example.com/api?q=\", $q)";
  }
  return R"(<html><head>
<script type="text/javascript"><![CDATA[
function showMap(e) {
  document.getElementById('map').textContent = 'Map of ' + e.value;
}
document.getElementById('searchbtn').addEventListener('onclick', showMap, false);
]]></script>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onSearch($evt, $obj) {
  let $q := string($evt/value)
  let $replies :=
    for $u in ()" + urls + R"()
    return http:get($u)
  return (
    delete nodes //div[@id="weather"]/*,
    delete nodes //div[@id="webcams"]/*,
    insert node <div>{
      for $r in $replies, $s in $r//summary return <p>{string($s)}</p>
    }</div> into //div[@id="weather"],
    insert node <ul>{
      for $r in $replies, $cam in $r//cam return <li>{string($cam/@url)}</li>
    }</ul> into //div[@id="webcams"]
  )
};
on event "onclick" at //input[@id="searchbtn"]
  attach listener local:onSearch
]]></script>
</head><body>
<p><input type="button" id="searchbtn" value="Search"/></p>
<div id="map"/><div id="weather"/><div id="webcams"/>
</body></html>)";
}

std::vector<PageCase> Pages() {
  std::vector<PageCase> pages;
  // Every shipped page with a listener.
  pages.push_back(
      {"behind_update.xhtml",
       [](BrowserEnvironment& env) {
         XQ_RETURN_NOT_OK(env.services().Deploy(
             R"(module namespace hints="http://example.com" port:2001;
                declare function hints:getHint($s) {
                  concat("Did you mean ", $s, "a?") };)",
             "example.com"));
         return LoadExample(env, "behind_update.xhtml",
                            "http://app.example.com/suggest.xhtml");
       },
       [](BrowserEnvironment& env, int i) {
         browser::Event keyup;
         keyup.type = "onkeyup";
         keyup.value = i % 5 == 0 ? "" : "An" + std::to_string(i % 7);
         return env.Fire(env.ById("text1"), keyup);
       }});
  pages.push_back(
      {"mashup.xhtml",
       [](BrowserEnvironment& env) {
         env.fabric().SetHandler(
             "http://weather.example.com/api",
             [](const net::HttpRequest& req) -> Result<net::HttpResponse> {
               return net::HttpResponse{200,
                                        "<weather><summary>" +
                                            QueryParam(req.url) +
                                            ": sunny</summary></weather>",
                                        "application/xml"};
             });
         env.fabric().SetHandler(
             "http://webcams.example.com/api",
             [](const net::HttpRequest& req) -> Result<net::HttpResponse> {
               return net::HttpResponse{
                   200, "<cams><cam url=\"" + QueryParam(req.url) +
                            "/north\"/></cams>",
                   "application/xml"};
             });
         return LoadExample(env, "mashup.xhtml", "http://mashup.example.com/");
       },
       ClickCycle({"searchbtn"})});
  for (const char* file : {"multiplication_table_js.xhtml",
                           "multiplication_table_xquery.xhtml"}) {
    pages.push_back({file,
                     [file](BrowserEnvironment& env) {
                       return LoadExample(env, file,
                                          "http://app.example.com/table.xhtml");
                     },
                     ClickCycle({"go"})});
  }
  for (const char* file :
       {"shopping_cart_js.xhtml", "shopping_cart_xquery.xhtml"}) {
    pages.push_back({file,
                     [file](BrowserEnvironment& env) {
                       env.fabric().PutResource(
                           "http://shop.example.com/products.xml", kProducts);
                       return LoadExample(env, file,
                                          "http://shop.example.com/cart.xhtml");
                     },
                     ClickCycle({"laptop", "mouse", "keyboard"})});
  }
  pages.push_back({"xqsa034_interference.xhtml",
                   [](BrowserEnvironment& env) {
                     return LoadExample(env, "xqsa034_interference.xhtml",
                                        "http://app.example.com/log.xhtml");
                   },
                   ClickCycle({"go"})});
  pages.push_back({"xqsa035_top_reads.xhtml",
                   [](BrowserEnvironment& env) {
                     return LoadExample(env, "xqsa035_top_reads.xhtml",
                                        "http://app.example.com/top.xhtml");
                   },
                   ClickCycle({"count"})});
  pages.push_back({"xqsa036_dead_update.xhtml",
                   [](BrowserEnvironment& env) {
                     return LoadExample(env, "xqsa036_dead_update.xhtml",
                                        "http://app.example.com/audit.xhtml");
                   },
                   ClickCycle({"go"})});
  // The three benchmark workloads' shapes.
  pages.push_back({"cart",
                   [](BrowserEnvironment& env) {
                     env.fabric().PutResource(
                         "http://shop.example.com/products.xml", kProducts);
                     return env.LoadPage("http://shop.example.com/cart.xhtml",
                                         kCartPage);
                   },
                   ClickCycle({"laptop", "show-cart", "show-catalog", "mouse",
                               "show-cart", "keyboard"})});
  pages.push_back(
      {"browse",
       [](BrowserEnvironment& env) {
         app::elsevier::CorpusOptions corpus;
         corpus.journals = 2;
         corpus.volumes = 2;
         corpus.issues = 4;
         corpus.articles_per_issue = 6;
         XQ_RETURN_NOT_OK(app::elsevier::BuildCorpus(&env.store(), corpus));
         XQ_RETURN_NOT_OK(
             app::elsevier::DeployServer(&env.store(), &env.fabric()));
         return env.Navigate("http://elsevier.example.com/client.xhtml");
       },
       [](BrowserEnvironment& env, int i) {
         return env.ClickId("link-a-" + std::to_string(i * 7 % 96));
       }});
  pages.push_back(
      {"mashup",
       [](BrowserEnvironment& env) {
         for (int s = 0; s < 8; ++s) {
           env.fabric().SetHandler(
               "http://src" + std::to_string(s) + ".example.com/api",
               [s](const net::HttpRequest& req) -> Result<net::HttpResponse> {
                 const std::string q = QueryParam(req.url);
                 return net::HttpResponse{
                     200,
                     s < 6 ? "<weather><summary>" + q + " " +
                                 std::to_string(s) + "</summary></weather>"
                           : "<cams><cam url=\"" + q + "/" +
                                 std::to_string(s) + "\"/></cams>",
                     "application/xml"};
               });
         }
         return env.LoadPage("http://mashup.example.com/", MashupPage());
       },
       [](BrowserEnvironment& env, int i) {
         browser::Event click;
         click.type = "onclick";
         click.value = "city" + std::to_string(i % 40);
         return env.Fire(env.ById("searchbtn"), click);
       }});
  return pages;
}

TEST(Retention, TenAndAThousandClicksRetainTheSame) {
  for (const PageCase& page : Pages()) {
    SCOPED_TRACE(page.name);
    BrowserEnvironment env;
    Status loaded = page.load(env);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    XqibPlugin::Retained after_ten;
    for (int i = 0; i < 1000; ++i) {
      Status st = page.click(env, i);
      ASSERT_TRUE(st.ok()) << "click " << i << ": " << st.ToString();
      if (i == 9) after_ten = env.plugin().retained();
    }
    const XqibPlugin::Retained after_thousand = env.plugin().retained();
    EXPECT_EQ(after_ten.documents, after_thousand.documents);
    EXPECT_EQ(after_ten.nodes, after_thousand.nodes);
    // No global holds a constructed node on any of these pages.
    EXPECT_EQ(after_thousand.documents, 0u);
    EXPECT_EQ(after_thousand.nodes, 0u);
    Status invariants = env.window()->document()->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  }
}

// The browse session resolves every click's target through the page's
// id map right after the previous click's update: the map is built once
// and spliced from then on.
TEST(IdMap, HundredBrowseClicksBuildOnce) {
  BrowserEnvironment env;
  std::vector<PageCase> pages = Pages();
  auto browse = std::find_if(pages.begin(), pages.end(), [](const PageCase& p) {
    return std::string(p.name) == "browse";
  });
  ASSERT_NE(browse, pages.end());
  ASSERT_TRUE(browse->load(env).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(browse->click(env, i).ok()) << i;
    ASSERT_NE(env.ById("title"), nullptr);
  }
  EXPECT_EQ(env.window()->document()->id_index_builds(), 1u);
  Status invariants = env.window()->document()->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

// ------------------------------------------------------------ roots ---

class RootTest : public ::testing::Test {
 protected:
  void Load(const std::string& script) {
    Status st = env_.LoadPage("http://app.example.com/roots.xhtml",
                              R"(<html><body>
<input type="button" id="go"/><input type="button" id="other"/>
<p id="out"/><div id="log"/>
<script type="text/xqueryp"><![CDATA[)" + script +
                                  R"(]]></script></body></html>)");
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  void Click(const std::string& id) {
    Status st = env_.ClickId(id);
    ASSERT_TRUE(st.ok()) << id << ": " << st.ToString();
  }
  std::string Out() { return env_.ById("out")->StringValue(); }
  uint64_t RetainedDocuments() { return env_.plugin().retained().documents; }

  BrowserEnvironment env_;
};

TEST_F(RootTest, GlobalHoldsAConstructedNode) {
  Load(R"(
declare variable $keep := <kept n="1"><v>held</v></kept>;
declare updating function local:show($evt, $obj) {
  replace value of node //p[@id="out"]
    with concat(string($keep/v), $keep/@n, count(//div[@id="log"]/x))
};
declare updating function local:other($evt, $obj) {
  insert node <x>{string($obj/@id)}</x> into //div[@id="log"]
};
on event "onclick" at //input[@id="go"] attach listener local:show;
on event "onclick" at //input[@id="other"] attach listener local:other)");
  // The page load's construction document survives whole; every click's
  // own documents die with the click.
  const uint64_t nodes = env_.plugin().retained().nodes;
  EXPECT_EQ(RetainedDocuments(), 1u);
  for (int i = 0; i < 20; ++i) {
    Click("other");
    Click("go");
    EXPECT_EQ(Out(), "held1" + std::to_string(i + 1));
    EXPECT_EQ(RetainedDocuments(), 1u);
    EXPECT_EQ(env_.plugin().retained().nodes, nodes);
  }
}

TEST_F(RootTest, SetReleasesTheReplacedNode) {
  Load(R"(
declare variable $n := <v>0</v>;
declare sequential function local:bump($evt, $obj) {
  set $n := <v>{xs:integer($n) + 1}</v>;
  replace value of node //p[@id="out"] with string($n)
};
on event "onclick" at //input[@id="go"] attach listener local:bump)");
  EXPECT_EQ(RetainedDocuments(), 1u);
  const uint64_t load_nodes = env_.plugin().retained().nodes;
  uint64_t click_nodes = 0;
  for (int i = 1; i <= 20; ++i) {
    Click("go");
    EXPECT_EQ(Out(), std::to_string(i));
    // Only the document of the latest value is left: the one the set
    // replaced died at the end of the dispatch that replaced it.
    EXPECT_EQ(RetainedDocuments(), 1u);
    if (i == 1) {
      click_nodes = env_.plugin().retained().nodes;
      EXPECT_NE(click_nodes, load_nodes);
    }
    EXPECT_EQ(env_.plugin().retained().nodes, click_nodes);
  }
}

TEST_F(RootTest, BehindEagerArgumentOutlivesAnotherClick) {
  Load(R"(
declare function local:echo($n) { concat(string($n/@k), string($n/w)) };
declare updating function local:done($state, $result) {
  if ($state eq 4)
  then replace value of node //p[@id="out"] with $result
  else ()
};
declare updating function local:go($evt, $obj) {
  on event "stateChanged"
    behind local:echo(<arg k="{string($obj/@id)}"><w>!</w></arg>)
    attach listener local:done
};
declare updating function local:other($evt, $obj) {
  insert node <x>{string($obj/@id)}</x> into //div[@id="log"]
};
on event "onclick" at //input[@id="go"] attach listener local:go;
on event "onclick" at //input[@id="other"] attach listener local:other)");
  env_.fabric().latency.base_ms = 50;  // the completion comes later
  // Queue a click on "other" between the click on "go" and the `behind`
  // completion: its dispatch end must keep the eager argument.
  uint64_t held_during_other = 0;
  xml::Node* other = env_.ById("other");
  env_.browser().loop().Post(
      [&] {
        browser::Event click;
        click.type = "onclick";
        env_.browser().events().Dispatch(other, click);
        held_during_other = RetainedDocuments();
      },
      10.0);
  Click("go");
  EXPECT_EQ(held_during_other, 1u);
  EXPECT_EQ(env_.ById("log")->children().size(), 1u);
  EXPECT_EQ(Out(), "go!");
  EXPECT_EQ(RetainedDocuments(), 0u);
}

TEST_F(RootTest, TriggerAtAConstructedNode) {
  Load(R"(
declare updating function local:onPing($evt, $obj) {
  replace value of node //p[@id="out"]
    with concat(string($obj/@tag), "/", string($evt/type))
};
declare updating function local:go($evt, $obj) {
  let $n := <ping tag="{string($obj/@id)}"/>
  return (on event "onping" at $n attach listener local:onPing,
          trigger event "onping" at $n)
};
declare updating function local:bare($evt, $obj) {
  let $t := <outer><inner/></outer>
  return trigger event "onping" at $t/inner
};
on event "onclick" at //input[@id="go"] attach listener local:go;
on event "onclick" at //input[@id="other"] attach listener local:bare)");
  Click("go");
  EXPECT_EQ(Out(), "go/onping");
  EXPECT_EQ(RetainedDocuments(), 1u);  // the listener on <ping> holds it
  // No listener holds <outer>: only the queued trigger does, until its
  // dispatch has run; the next dispatch end then releases it.
  for (int i = 0; i < 3; ++i) {
    Click("other");
    EXPECT_EQ(RetainedDocuments(), 2u);
  }
}

TEST_F(RootTest, FailedDispatchsPendingUpdatesDieWithIt) {
  // A listener that fails discards its pending updates at the dispatch
  // end: the constructed node one of them targets dies with the click,
  // and none of them applies on a later one.
  Load(R"(
declare updating function local:fail($evt, $obj) {
  let $n := <box/>
  return (insert node <b/> into $n,
          replace value of node //p[@id="out"] with "applied",
          error())
};
declare updating function local:other($evt, $obj) {
  insert node <x/> into //div[@id="log"]
};
on event "onclick" at //input[@id="go"] attach listener local:fail;
on event "onclick" at //input[@id="other"] attach listener local:other)");
  EXPECT_FALSE(env_.ClickId("go").ok());
  EXPECT_EQ(RetainedDocuments(), 0u);
  EXPECT_EQ(Out(), "");
  env_.plugin().ClearScriptError();
  for (int i = 0; i < 2; ++i) {
    Click("other");
    EXPECT_EQ(Out(), "");
    EXPECT_EQ(RetainedDocuments(), 0u);
  }
  EXPECT_EQ(env_.ById("log")->children().size(), 2u);
}

TEST_F(RootTest, ListenerOnAConstructedNodeKeepsItsDocument) {
  Load(R"(
declare updating function local:onPing($evt, $obj) {
  replace value of node //p[@id="out"] with string($obj/@tag),
  on event "onping" at $obj detach listener local:onPing
};
declare updating function local:arm($evt, $obj) {
  let $n := <outer tag="armed"><inner/></outer>
  return (
    on event "onping" at $n attach listener local:onPing,
    on event "onping" at $n/inner attach listener local:onPing
  )
};
declare updating function local:fire($evt, $obj) {
  insert node <x/> into //div[@id="log"]
};
on event "onclick" at //input[@id="go"] attach listener local:arm;
on event "onclick" at //input[@id="other"] attach listener local:fire)");
  Click("go");
  // Only the listener registry reaches the armed tree now; later
  // dispatches release everything else and keep it.
  for (int i = 0; i < 10; ++i) {
    Click("other");
    EXPECT_EQ(RetainedDocuments(), 1u);
  }
  // Reloading drops the page context with its documents, and with them
  // the listeners on constructed nodes: a later unload must not visit
  // them.
  for (int reload = 0; reload < 2; ++reload) {
    Status st = env_.LoadPage("http://app.example.com/roots.xhtml",
                              "<html><body><p id=\"out\"/></body></html>");
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(RetainedDocuments(), 0u);
  }
}

}  // namespace
}  // namespace xqib
