// Integration tests for the XQIB plug-in (paper Sections 4-5): page
// initialization, browser: functions, the event grammar extension, CSS
// extension, the BOM, security, and the asynchronous "behind" construct.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/environment.h"
#include "browser/css.h"
#include "net/rest.h"
#include "net/webservice.h"
#include "plugin/plugin.h"
#include "xml/serializer.h"

namespace xqib::plugin {
namespace {

using browser::Browser;
using browser::Event;
using browser::Window;

class PluginTest : public ::testing::Test {
 protected:
  PluginTest()
      : services_(&fabric_, &store_), plugin_(&browser_, &fabric_, &services_) {
    plugin_.Install();
    browser_.policy().set_mode(browser::SecurityPolicy::Mode::kSameOrigin);
    browser_.page_fetcher = [this](const std::string& url)
        -> Result<std::string> {
      auto resp = fabric_.Get(url);
      if (!resp.ok()) return resp.status();
      return resp->body;
    };
  }

  // Loads page source into the top window (as if fetched from `url`).
  Window* Load(const std::string& source,
               const std::string& url = "http://app.example.com/index.xhtml") {
    Window* w = LoadRaw(source, url);
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
    return w;
  }

  // Same, but tolerates script errors (tests that expect them).
  Window* LoadRaw(const std::string& source,
                  const std::string& url =
                      "http://app.example.com/index.xhtml") {
    Status st = browser_.top_window()->LoadSource(url, source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return browser_.top_window();
  }

  xml::Node* ById(Window* w, const std::string& id) {
    return w->document()->GetElementById(id);
  }

  // Dispatches a click; the target's document must keep its order keys
  // and name-index buckets consistent across whatever the listeners
  // applied.
  void Click(xml::Node* target) {
    Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
    Status invariants = target->document()->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  Browser browser_;
  XqibPlugin plugin_;
};

TEST_F(PluginTest, HelloWorldAlertOnLoad) {
  // The paper's §4.1 hello-world page, verbatim.
  Load(R"(<html><head>
      <title>Hello World Page</title>
      <script type="text/xquery">
      browser:alert("Hello, World!")
      </script>
      </head><body/></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "Hello, World!");
}

TEST_F(PluginTest, MainBodyCanUpdateTheDom) {
  Window* w = Load(R"(<html><body><div id="out"/>
      <script type="text/xquery">
      insert node <p>generated</p> into //div[@id="out"]
      </script></body></html>)");
  xml::Node* out = ById(w, "out");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(xml::Serialize(out), "<div id=\"out\"><p>generated</p></div>");
}

TEST_F(PluginTest, LocalMainConvention) {
  // §5.1: "the code executed when the page is loaded is put in a
  // function local:main()".
  Load(R"(<html><body><script type="text/xquery">
      declare sequential function local:main() {
        browser:alert("from main")
      };
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "from main");
}

TEST_F(PluginTest, EventAttachAndDispatch) {
  Window* w = Load(R"(<html><body>
      <input type="button" id="button" value="Go"/>
      <div id="log"/>
      <script type="text/xquery">
      declare updating function local:onClick($evt, $obj) {
        insert node <hit>{string($evt/type)}</hit>
          into //div[@id="log"]
      };
      on event "onclick" at //input[@id="button"]
        attach listener local:onClick
      </script></body></html>)");
  Click(ById(w, "button"));
  Click(ById(w, "button"));
  EXPECT_EQ(xml::Serialize(ById(w, "log")),
            "<div id=\"log\"><hit>onclick</hit><hit>onclick</hit></div>");
}

TEST_F(PluginTest, EventStatsTrackFastPaths) {
  Window* w = Load(R"(<html><body>
      <input type="button" id="b" value="Go"/>
      <div id="log"/>
      <script type="text/xquery">
      declare updating function local:onClick($evt, $obj) {
        insert node <hit n="{count(//hit) + 1}"/>
          into //div[@id="log"]
      };
      on event "onclick" at //input[@id="b"] attach listener local:onClick
      </script></body></html>)");
  Click(ById(w, "b"));
  // The dispatch ran //hit (name index) and //div[@id="log"] (elided
  // descendant step) through the fast paths.
  EXPECT_GT(plugin_.last_event_stats().sorts_elided, 0u);
  EXPECT_GT(plugin_.last_event_stats().name_index_hits, 0u);
  // The insert invalidated the name index: the second dispatch must see
  // the first <hit>.
  Click(ById(w, "b"));
  EXPECT_EQ(xml::Serialize(ById(w, "log")),
            "<div id=\"log\"><hit n=\"1\"/><hit n=\"2\"/></div>");
}

TEST_F(PluginTest, EventStatsDoNotLeakAcrossDispatches) {
  // The page evaluator's counters are cumulative, so last_event_stats()
  // must be a per-dispatch delta: two identical dispatches report
  // identical numbers, not a running total.
  Window* w = Load(R"(<html><body>
      <input type="button" id="b" value="Go"/>
      <span id="status">idle</span>
      <script type="text/xquery">
      declare updating function local:onClick($evt, $obj) {
        replace value of node //span[@id="status"]
          with string(count(//input))
      };
      on event "onclick" at //input[@id="b"] attach listener local:onClick
      </script></body></html>)");
  Click(ById(w, "b"));
  xquery::Counters first = plugin_.last_event_stats();
  EXPECT_GT(first.name_index_hits, 0u);
  EXPECT_GT(first.items_pulled + first.items_materialized +
                first.buffers_avoided,
            0u);
  Click(ById(w, "b"));
  xquery::Counters second = plugin_.last_event_stats();
  EXPECT_EQ(second.sorts_elided, first.sorts_elided);
  EXPECT_EQ(second.sorts_performed, first.sorts_performed);
  EXPECT_EQ(second.name_index_hits, first.name_index_hits);
  EXPECT_EQ(second.early_exits, first.early_exits);
  EXPECT_EQ(second.count_index_hits, first.count_index_hits);
  EXPECT_EQ(second.items_pulled, first.items_pulled);
  EXPECT_EQ(second.items_materialized, first.items_materialized);
  EXPECT_EQ(second.buffers_avoided, first.buffers_avoided);
}

TEST_F(PluginTest, EventListenerReceivesEventNodeAndTarget) {
  Window* w = Load(R"(<html><body>
      <input id="b" value="x"/>
      <script type="text/xquery">
      declare sequential function local:l($evt, $obj) {
        browser:alert(concat(string($evt/type), "@",
                             string($obj/@id)))
      };
      on event "onclick" at //input[@id="b"] attach listener local:l
      </script></body></html>)");
  Click(ById(w, "b"));
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "onclick@b");
}

TEST_F(PluginTest, EventDetach) {
  Window* w = Load(R"(<html><body>
      <input id="b"/><div id="log"/>
      <script type="text/xquery">
      declare updating function local:l($evt, $obj) {
        insert node <hit/> into //div[@id="log"]
      };
      declare updating function local:off($evt, $obj) {
        on event "onclick" at //input[@id="b"] detach listener local:l
      };
      { on event "onclick" at //input[@id="b"] attach listener local:l;
        on event "onoff" at //input[@id="b"] attach listener local:off; }
      </script></body></html>)");
  Click(ById(w, "b"));
  Event off;
  off.type = "onoff";
  plugin_.FireEvent(ById(w, "b"), off);
  Click(ById(w, "b"));
  EXPECT_EQ(xml::Serialize(ById(w, "log")), "<div id=\"log\"><hit/></div>");
}

TEST_F(PluginTest, TriggerEventSimulatesClick) {
  Window* w = Load(R"(<html><body>
      <input id="myButton"/><div id="log"/>
      <script type="text/xquery">
      declare updating function local:l($evt, $obj) {
        insert node <hit/> into //div[@id="log"]
      };
      { on event "onclick" at //input[@id="myButton"]
          attach listener local:l;
        trigger event "onclick" at //input[@id="myButton"]; }
      </script></body></html>)");
  plugin_.PumpEvents();
  EXPECT_EQ(xml::Serialize(ById(w, "log")), "<div id=\"log\"><hit/></div>");
}

TEST_F(PluginTest, EventsBubbleToAncestors) {
  Window* w = Load(R"(<html><body>
      <div id="outer"><input id="inner"/></div><div id="log"/>
      <script type="text/xquery">
      declare updating function local:l($evt, $obj) {
        insert node <hit at="{string($obj/@id)}"/> into //div[@id="log"]
      };
      { on event "onclick" at //div[@id="outer"] attach listener local:l;
        on event "onclick" at //input[@id="inner"] attach listener local:l; }
      </script></body></html>)");
  Click(ById(w, "inner"));
  EXPECT_EQ(xml::Serialize(ById(w, "log")),
            "<div id=\"log\"><hit at=\"inner\"/><hit at=\"outer\"/></div>");
}

TEST_F(PluginTest, SetAndGetStyle) {
  // The §4.5 examples.
  Window* w = Load(R"(<html><body>
      <table id="thistable"><tr><td>x</td></tr></table>
      <script type="text/xquery">
      { set style "border-margin" of //table[@id="thistable"] to "2px";
        browser:alert(get style "border-margin"
                      of //table[@id="thistable"]); }
      </script></body></html>)");
  EXPECT_EQ(browser::GetStyleProperty(ById(w, "thistable"), "border-margin"),
            "2px");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "2px");
}

TEST_F(PluginTest, NavigatorAndScreen) {
  browser_.navigator.app_name = "Internet Explorer";
  browser_.screen.height = 768;
  Load(R"(<html><body><script type="text/xquery">
      { if (browser:navigator()/appName ftcontains "Internet Explorer")
        then browser:alert("You are running IE") else ();
        browser:alert(string(browser:screen()/height)); }
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 2u);
  EXPECT_EQ(plugin_.alerts()[0], "You are running IE");
  EXPECT_EQ(plugin_.alerts()[1], "768");
}

TEST_F(PluginTest, BrowserTopAndWindowNavigation) {
  Window* top = browser_.top_window();
  Window* frame = top->CreateFrame("leftframe");
  (void)frame->LoadSource("http://app.example.com/frame.xhtml",
                          "<html><body/></html>");
  Load(R"(<html><body><script type="text/xquery">
      browser:alert(string(
        browser:top()//window[@name="leftframe"]/@name))
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "leftframe");
}

TEST_F(PluginTest, ReplaceStatusViaWindowNode) {
  // §4.2.1: replace value of node browser:self()/status with "Welcome".
  Load(R"(<html><body><script type="text/xquery">
      replace value of node browser:self()/status with "Welcome"
      </script></body></html>)");
  EXPECT_EQ(browser_.top_window()->status(), "Welcome");
}

TEST(BomTrees, OnlyTheCurrentDispatchsTreesSyncBack) {
  // Three clicks: an XQuery listener sets the status through
  // browser:self(), a MiniJS listener overwrites it, and an unrelated
  // updating XQuery listener runs. The first click's tree is gone by
  // then: it must not push "from-xquery" back.
  app::BrowserEnvironment env;
  ASSERT_TRUE(env.LoadPage("http://app.example.com/status.xhtml", R"(<html>
<head><script type="text/javascript"><![CDATA[
function fromJs(e) { window.status = 'from-js'; }
document.getElementById('js').addEventListener('onclick', fromJs, false);
]]></script>
<script type="text/xqueryp"><![CDATA[
declare updating function local:fromXQuery($evt, $obj) {
  replace value of node browser:self()/status with "from-xquery"
};
declare updating function local:log($evt, $obj) {
  insert node <p/> into //div[@id="log"]
};
on event "onclick" at //input[@id="xq"] attach listener local:fromXQuery;
on event "onclick" at //input[@id="other"] attach listener local:log
]]></script></head><body>
<input type="button" id="xq"/><input type="button" id="js"/>
<input type="button" id="other"/><div id="log"/>
</body></html>)")
                  .ok())
      << env.ScriptErrors();
  ASSERT_TRUE(env.ClickId("xq").ok()) << env.ScriptErrors();
  EXPECT_EQ(env.window()->status(), "from-xquery");
  ASSERT_TRUE(env.ClickId("js").ok()) << env.ScriptErrors();
  EXPECT_EQ(env.window()->status(), "from-js");
  ASSERT_TRUE(env.ClickId("other").ok()) << env.ScriptErrors();
  EXPECT_EQ(env.window()->status(), "from-js");
  EXPECT_EQ(env.ById("log")->children().size(), 1u);
  // The tree died with the first click's construction document.
  EXPECT_EQ(env.plugin().retained().documents, 0u);
}

TEST_F(PluginTest, LocationHrefChangeNavigates) {
  fabric_.PutResource("http://app.example.com/second.xhtml",
                      "<html><body><p id='second'>two</p></body></html>");
  Load(R"(<html><body><script type="text/xquery">
      replace value of node browser:self()/location/href
        with "http://app.example.com/second.xhtml"
      </script></body></html>)");
  EXPECT_EQ(browser_.top_window()->url(),
            "http://app.example.com/second.xhtml");
  EXPECT_NE(ById(browser_.top_window(), "second"), nullptr);
}

TEST_F(PluginTest, SecurityCrossOriginWindowIsEmpty) {
  Window* top = browser_.top_window();
  Window* foreign = top->CreateFrame("foreignframe");
  (void)foreign->LoadSource("http://evil.example.org/index.xhtml",
                            "<html><body><p id='secret'/></body></html>");
  Load(R"(<html><body><script type="text/xquery">
      { browser:alert(string(count(
          browser:top()//window[@name="foreignframe"])));
        browser:alert(string(count(
          browser:top()//window[not(@name)]/*))); }
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 2u);
  // The foreign frame has no name attribute and no children at all: the
  // accessor learns nothing (paper §4.2.1).
  EXPECT_EQ(plugin_.alerts()[0], "0");
  EXPECT_EQ(plugin_.alerts()[1], "0");
}

TEST_F(PluginTest, SecurityBrowserDocumentDeniedYieldsEmpty) {
  Window* top = browser_.top_window();
  Window* foreign = top->CreateFrame("f");
  (void)foreign->LoadSource("http://evil.example.org/x.xhtml",
                            "<html><body><p id='secret'/></body></html>");
  Load(R"(<html><body><script type="text/xquery">
      browser:alert(string(count(browser:document(
        browser:top()/frames/window[1]))))
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "0");
}

TEST_F(PluginTest, SameOriginFrameDocumentAccessible) {
  Window* top = browser_.top_window();
  Window* frame = top->CreateFrame("child");
  (void)frame->LoadSource("http://app.example.com/frame.xhtml",
                          "<html><body><p id='inframe'>hi</p></body></html>");
  Load(R"(<html><body><script type="text/xquery">
      browser:alert(string(browser:document(
        browser:self()/frames/window[1])//p[@id="inframe"]))
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "hi");
}

TEST_F(PluginTest, FnDocIsBlockedInBrowserProfile) {
  store_.MountOn(&fabric_, "http://db.example.com/");
  (void)store_.Put("/lib.xml", "<lib/>");
  LoadRaw(R"(<html><body><script type="text/xquery">
      doc("http://db.example.com/lib.xml")
      </script></body></html>)");
  // §4.2.1: fn:doc is blocked; the page reports a script error.
  EXPECT_EQ(plugin_.last_script_error().code(), "BRWS0002");
}

TEST_F(PluginTest, RestGetWorksInBrowser) {
  fabric_.PutResource("http://api.example.com/data.xml",
                      "<data><v>41</v></data>");
  // Same-origin policy applies to windows, not REST (as in the paper's
  // mash-up, which calls foreign weather services).
  Load(R"(<html><body><script type="text/xquery">
      browser:alert(string(
        http:get("http://api.example.com/data.xml")//v + 1))
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "42");
}

TEST_F(PluginTest, WebServiceImportAndCall) {
  // §3.4: a web-service module and a client that imports and calls it.
  ASSERT_TRUE(services_
                  .Deploy(R"(module namespace ex="www.example.ch" port:2001;
                     declare option fn:webservice "true";
                     declare function ex:mul($a, $b) { $a * $b };)",
                          "www.example.ch")
                  .ok());
  Window* w = Load(R"(<html><body>
      <input name="textbox" value="unset"/>
      <script type="text/xquery">
      import module namespace ab="www.example.ch"
        at "http://www.example.ch:2001/wsdl";
      replace value of node //input[@name="textbox"]/@value
        with ab:mul(2, 5)
      </script></body></html>)");
  xml::Node* input = nullptr;
  xml::VisitSubtree(w->document()->root(), [&](xml::Node* n) {
    if (n->is_element() && n->name().local() == "input") input = n;
  });
  ASSERT_NE(input, nullptr);
  EXPECT_EQ(input->GetAttributeValue("value"), "10");
  EXPECT_GE(fabric_.stats().requests, 1u);
}

TEST_F(PluginTest, BehindConstructAjaxSuggest) {
  // The §4.4 AJAX example: onkeyup calls local:showHint(value), which
  // asynchronously calls the web service "behind" and fills in the hint
  // when readyState reaches 4.
  ASSERT_TRUE(services_
                  .Deploy(R"(module namespace hints="http://example.com" port:2001;
                     declare function hints:getHint($s) {
                       concat("Did you mean ", $s, "a?") };)",
                          "example.com")
                  .ok());
  Window* w = Load(R"XQ(<html><head>
      <script type="text/xquery">
      import module namespace ab = "http://example.com"
        at "http://example.com:2001/wsdl";
      declare updating function local:showHint($str as xs:string) {
        if (string-length($str) eq 0)
        then replace value of node //*[@id="txtHint"] with ""
        else
          on event "stateChanged" behind ab:getHint($str)
          attach listener local:onResult
      };
      declare updating function local:onResult($readyState, $result) {
        if ($readyState eq 4)
        then replace value of node //*[@id="txtHint"] with $result
        else ()
      };
      </script></head><body>
      <form>First Name: <input type="text" id="text1"
        onkeyup="local:showHint(value)"/></form>
      <p>Suggestions: <span id="txtHint"/></p>
      </body></html>)XQ");
  Event keyup;
  keyup.type = "onkeyup";
  keyup.value = "Ann";
  plugin_.FireEvent(ById(w, "text1"), keyup);
  plugin_.PumpEvents();
  EXPECT_EQ(ById(w, "txtHint")->StringValue(), "Did you mean Anna?");
}

TEST_F(PluginTest, EqualDueBehindCompletionsRunOneAfterTheOther) {
  // One click makes two `behind` calls to a pure DOM reader; both
  // completions are due at the same instant. Each completion is one
  // task on the loop (§4.4: a later event), so the second call runs
  // after the first listener's insert and counts its <li/>.
  Window* w = Load(R"XQ(<html><head>
      <script type="text/xquery"><![CDATA[
      declare function local:n() { count(//li) };
      declare updating function local:first($readyState, $result) {
        if ($readyState eq 4)
        then insert node <li/> into //ul[@id="list"]
        else ()
      };
      declare function local:second($readyState, $result) {
        if ($readyState eq 4)
        then browser:alert(string($result))
        else ()
      };
      declare updating function local:go($evt, $obj) {
        on event "stateChanged" behind local:n()
        attach listener local:first,
        on event "stateChanged" behind local:n()
        attach listener local:second
      };
      on event "onclick" at //input[@id="btn"] attach listener local:go
      ]]></script></head><body>
      <input id="btn"/>
      <ul id="list"/>
      </body></html>)XQ");
  Click(ById(w, "btn"));
  plugin_.PumpEvents();
  EXPECT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
  EXPECT_EQ(ById(w, "list")->children().size(), 1u);
  EXPECT_EQ(plugin_.alerts(), std::vector<std::string>{"1"});
}

TEST_F(PluginTest, HistoryFunctions) {
  fabric_.PutResource("http://app.example.com/a.xhtml",
                      "<html><body><p id='a'/></body></html>");
  fabric_.PutResource("http://app.example.com/b.xhtml",
                      "<html><body><p id='b'/>"
                      "<script type=\"text/xquery\">"
                      "browser:historyBack()</script></body></html>");
  Window* w = browser_.top_window();
  ASSERT_TRUE(w->Navigate("http://app.example.com/a.xhtml").ok());
  ASSERT_TRUE(w->Navigate("http://app.example.com/b.xhtml").ok());
  // b's on-load script navigated back to a.
  EXPECT_EQ(w->url(), "http://app.example.com/a.xhtml");
  EXPECT_NE(ById(w, "a"), nullptr);
}

TEST_F(PluginTest, ShoppingCartXQueryOnly) {
  // The §6.3 XQuery-only shopping cart; products served via REST
  // instead of fn:doc (blocked in the browser).
  fabric_.PutResource("http://shop.example.com/products.xml",
                      "<products>"
                      "<product><name>laptop</name></product>"
                      "<product><name>mouse</name></product>"
                      "</products>");
  Window* w = Load(R"(<html><head><script type="text/xqueryp"><![CDATA[
      declare updating function local:buy($evt, $obj) {
        insert node <p>{string($obj/@id)}</p> as first
          into //div[@id="shoppingcart"]
      };
      { insert node
          <div id="productlist">{
            for $p in http:get(
              "http://shop.example.com/products.xml")//product
            return <div>{string($p/name)}
              <input type="button" value="Buy" id="{$p/name}"/>
            </div>
          }</div>
          into /html/body;
        on event "onclick" at //input attach listener local:buy; }
      ]]></script></head><body>
      <div>Shopping cart</div>
      <div id="shoppingcart"/>
      </body></html>)",
                   "http://shop.example.com/cart.xhtml");
  // Two products rendered client-side.
  xml::Node* list = ById(w, "productlist");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->children().size(), 2u);
  // Click "Buy" on the laptop.
  Click(ById(w, "laptop"));
  EXPECT_EQ(xml::Serialize(ById(w, "shoppingcart")),
            "<div id=\"shoppingcart\"><p>laptop</p></div>");
  Click(ById(w, "mouse"));
  EXPECT_EQ(xml::Serialize(ById(w, "shoppingcart")),
            "<div id=\"shoppingcart\"><p>mouse</p><p>laptop</p></div>");
}

TEST_F(PluginTest, IeTagFoldingRequiresUppercaseXPath) {
  // §5.1: IE uppercases HTML tags, so XPath must use upper-case names —
  // "XQuery code could be incompatible between browsers".
  browser_.parse_options.ie_tag_folding = true;
  Window* w = Load(R"(<html><body><div id="out"/>
      <script type="text/xquery">
      { browser:alert(string(count(//div[@id="out"])));
        browser:alert(string(count(//DIV[@id="out"])));
        insert node <hit/> into //DIV[@id="out"]; }
      </script></body></html>)");
  ASSERT_EQ(plugin_.alerts().size(), 2u);
  EXPECT_EQ(plugin_.alerts()[0], "0");  // lower-case test finds nothing
  EXPECT_EQ(plugin_.alerts()[1], "1");
  xml::Node* out = ById(w, "out");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->children().size(), 1u);
}

TEST_F(PluginTest, ScriptErrorsDoNotCrashThePage) {
  LoadRaw(R"(<html><body><script type="text/xquery">
      1 idiv 0
      </script></body></html>)");
  EXPECT_EQ(plugin_.last_script_error().code(), "FOAR0001");
}

// ------------------------------------------ a failed dispatch's updates ---

// A page with a #bad listener (the body given) and an #other one that
// logs each click.
std::string FailingUpdatePage(const std::string& bad_body) {
  return R"(<html><body>
      <input id="bad"/><input id="other"/>
      <p id="out">before</p><div id="log"/>
      <script type="text/xquery">
      declare updating function local:bad($evt, $obj) { )" +
         bad_body + R"( };
      declare updating function local:other($evt, $obj) {
        insert node <x/> into //div[@id="log"]
      };
      on event "onclick" at //input[@id="bad"] attach listener local:bad;
      on event "onclick" at //input[@id="other"] attach listener local:other
      </script></body></html>)";
}

// A listener that queues an update and then raises an error: its update
// dies with its dispatch, and the next updating click does not apply it.
TEST_F(PluginTest, FailedListenersUpdatesNeverApplyLater) {
  Window* w = Load(FailingUpdatePage(
      R"(replace value of node //p[@id="out"] with "applied", error())"));
  Click(ById(w, "bad"));
  EXPECT_EQ(plugin_.last_script_error().code(), "FOER0000");
  plugin_.ClearScriptError();
  Click(ById(w, "other"));
  EXPECT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
  EXPECT_EQ(xml::Serialize(ById(w, "out")), "<p id=\"out\">before</p>");
  EXPECT_EQ(xml::Serialize(ById(w, "log")), "<div id=\"log\"><x/></div>");
}

// A list the apply pass rejects (two value replacements of one node) is
// discarded too: later updating clicks apply their own updates.
TEST_F(PluginTest, RejectedUpdateListDoesNotBlockLaterClicks) {
  Window* w = Load(FailingUpdatePage(
      R"(replace value of node //p[@id="out"] with "one",
         replace value of node //p[@id="out"] with "two")"));
  Click(ById(w, "bad"));
  EXPECT_EQ(plugin_.last_script_error().code(), "XUDY0017");
  plugin_.ClearScriptError();
  for (int i = 0; i < 2; ++i) {
    Click(ById(w, "other"));
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
  }
  EXPECT_EQ(xml::Serialize(ById(w, "out")), "<p id=\"out\">before</p>");
  EXPECT_EQ(xml::Serialize(ById(w, "log")),
            "<div id=\"log\"><x/><x/></div>");
}

// ------------------------------------------- one counter set, two views ---

// Every counter of the set as (name, value), in list order.
std::vector<std::pair<std::string, double>> Flatten(
    const xquery::Counters& counters) {
  std::vector<std::pair<std::string, double>> out;
  counters.ForEach([&out](const char* name, const char*, const auto& value) {
    out.emplace_back(name, static_cast<double>(value));
  });
  return out;
}

// Clicks each id in turn (one XQuery listener each) and checks, for every
// counter of the list, that the per-invocation views summed over the
// clicks equal how much the plug-in's cumulative set grew. Returns the
// sum so callers can check which counters the script reached.
xquery::Counters ExpectViewsAgree(app::BrowserEnvironment& env,
                                  const std::vector<std::string>& ids) {
  const xquery::Counters before = env.plugin().counters();
  xquery::Counters summed;
  for (const std::string& id : ids) {
    EXPECT_TRUE(env.ClickId(id).ok()) << env.ScriptErrors();
    EXPECT_EQ(env.ScriptErrors(), "") << id;
    summed += env.plugin().last_event_stats();
  }
  const auto sum = Flatten(summed);
  const auto grown = Flatten(env.plugin().counters() - before);
  for (size_t i = 0; i < sum.size(); ++i) {
    // The two virtual-time counters are doubles: the cumulative total
    // rounds differently from the per-call differences.
    EXPECT_NEAR(sum[i].second, grown[i].second,
                1e-9 * std::max(1.0, std::abs(grown[i].second)))
        << sum[i].first;
  }
  return summed;
}

// ------------------------------------------------- memo soundness ---

// One page in its own environment with the memo on or off; Click returns
// what the clicked listener answered.
class MemoArm {
 public:
  MemoArm(const std::string& page, bool memo) {
    env_.plugin().set_memo_enabled(memo);
    Status st = env_.LoadPage("http://app.example.com/index.xhtml", page);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(env_.ScriptErrors(), "");
  }
  std::string Click(const std::string& id) {
    EXPECT_TRUE(env_.ClickId(id).ok()) << id;
    EXPECT_EQ(env_.ScriptErrors(), "");
    return env_.plugin().last_listener_result();
  }
  const xquery::Counters& counters() { return env_.plugin().counters(); }

 private:
  app::BrowserEnvironment env_;
};

TEST(MemoSoundness, ListenerReadingAReassignedGlobalIsNeverReplayed) {
  // local:read is DOM-pure, but the global it returns changes between
  // clicks without any DOM mutation: a replay would answer 0 0 0.
  const std::string page = R"(<html><body>
      <input type="button" id="read" value="Read"/>
      <input type="button" id="bump" value="Bump"/>
      <script type="text/xqueryp">
      declare variable $n := 0;
      declare sequential function local:bump($evt, $obj) { set $n := $n + 1 };
      declare function local:read($evt, $obj) { $n };
      on event "onclick" at //input[@id="read"] attach listener local:read;
      on event "onclick" at //input[@id="bump"] attach listener local:bump
      </script></body></html>)";
  MemoArm off(page, /*memo=*/false);
  MemoArm on(page, /*memo=*/true);
  std::vector<std::string> reads_off, reads_on;
  for (int round = 0; round < 3; ++round) {
    reads_off.push_back(off.Click("read"));
    reads_on.push_back(on.Click("read"));
    off.Click("bump");
    on.Click("bump");
  }
  EXPECT_EQ(reads_off, (std::vector<std::string>{"0", "1", "2"}));
  EXPECT_EQ(reads_on, reads_off);
}

TEST(MemoSoundness, ListenerReadingTheClockIsNeverReplayed) {
  // current-time() has one-second resolution: 1.1 s apart, two calls
  // always answer differently, and the memo must not repeat the first.
  const std::string page = R"(<html><body>
      <input type="button" id="now" value="Now"/>
      <script type="text/xqueryp">
      declare function local:now($evt, $obj) { string(current-time()) };
      on event "onclick" at //input[@id="now"] attach listener local:now
      </script></body></html>)";
  MemoArm off(page, /*memo=*/false);
  MemoArm on(page, /*memo=*/true);
  std::vector<std::string> off_times = {off.Click("now")};
  std::vector<std::string> on_times = {on.Click("now")};
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  off_times.push_back(off.Click("now"));
  on_times.push_back(on.Click("now"));
  EXPECT_NE(off_times[1], off_times[0]);
  // Click for click, the memo-on run changes exactly when the reference
  // does: it re-ran instead of replaying.
  EXPECT_NE(on_times[1], on_times[0]);
  EXPECT_EQ(on.counters().memo_hits, 0u);
}

TEST(CounterViews, CartDispatchesSumToTheCumulativeSet) {
  app::BrowserEnvironment env;
  ASSERT_TRUE(env.LoadPage("http://shop.example.com/cart.xhtml", R"(<html>
<head><script type="text/xqueryp"><![CDATA[
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
on event "onclick" at //div[@id="productlist"]//input
  attach listener local:buy;
on event "onclick" at //input[@id="show-cart"]
  attach listener local:cartSize;
on event "onclick" at //input[@id="show-catalog"]
  attach listener local:catalogTotal
]]></script></head><body>
<div id="productlist"><input type="button" id="laptop" value="Buy"/>
<input type="button" id="mouse" value="Buy"/></div>
<ul id="catalog"><li price="1200">laptop</li><li price="25">mouse</li></ul>
<p><input type="button" id="show-cart" value="Cart"/>
<input type="button" id="show-catalog" value="Catalog"/></p>
<div id="shoppingcart"/>
</body></html>)")
                  .ok())
      << env.ScriptErrors();
  const xquery::Counters summed = ExpectViewsAgree(
      env, {"show-cart", "show-cart", "show-catalog", "laptop",
            "show-catalog", "show-cart", "show-cart", "mouse"});
  // The script reached every dispatch outcome the memo and delta paths
  // have: a miss, a hit, a delta skip, a stale entry and two buys.
  EXPECT_EQ(summed.memo_misses, 2u);
  EXPECT_EQ(summed.memo_hits, 3u);
  EXPECT_EQ(summed.delta_listeners_skipped, 1u);
  EXPECT_EQ(summed.memo_invalidations, 1u);
  EXPECT_EQ(summed.delta_emitted, 2u);
  EXPECT_EQ(summed.pure_listener_skips, 6u);
  EXPECT_GT(summed.items_pulled, 0u);
  EXPECT_EQ(summed.arena_resets, 5u);  // every evaluated call resets
  EXPECT_EQ(env.ById("shoppingcart")->children().size(), 2u);
}

TEST(CounterViews, MashupDispatchesSumToTheCumulativeSet) {
  app::BrowserEnvironment env;
  for (const char* source : {"http://weather.example.com/zurich",
                             "http://weather.example.com/geneva"}) {
    env.fabric().PutResource(source,
                             "<weather><summary>sunny</summary></weather>");
  }
  env.fabric().PutResource("http://webcams.example.com/zurich",
                           "<cams><cam url=\"u1\"/><cam url=\"u2\"/></cams>");
  ASSERT_TRUE(env.LoadPage("http://mashup.example.com/", R"(<html><head>
<script type="text/javascript"><![CDATA[
function showMap(e) {
  document.getElementById('map').textContent = 'Map of Zurich';
}
document.getElementById('searchbtn')
    .addEventListener('onclick', showMap, false);
]]></script>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onSearch($evt, $obj) {
  let $replies :=
    for $u in ("http://weather.example.com/zurich",
               "http://weather.example.com/geneva",
               "http://webcams.example.com/zurich")
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
</body></html>)")
                  .ok())
      << env.ScriptErrors();
  const xquery::Counters summed =
      ExpectViewsAgree(env, {"searchbtn", "searchbtn", "searchbtn"});
  EXPECT_EQ(summed.http_requests, 9u);
  EXPECT_GT(summed.http_prefetch_issued, 0u);
  EXPECT_GT(summed.http_prefetch_hits, 0u);
  EXPECT_GT(summed.http_makespan_ms, 0.0);
  EXPECT_EQ(summed.delta_emitted, 3u);
  EXPECT_EQ(env.ById("map")->StringValue(), "Map of Zurich");
  EXPECT_EQ(env.ById("webcams")->StringValue(), "u1u2");
}

}  // namespace
}  // namespace xqib::plugin
