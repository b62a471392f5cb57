#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "app/elsevier.h"
#include "net/http.h"
#include "net/response_cache.h"
#include "xml/dom.h"

namespace perfbench {

using xqib::Result;
using xqib::Status;
using xqib::net::HttpRequest;
using xqib::net::HttpResponse;
using xqib::server::PageServer;
using xqib::server::Session;
using xqib::server::SessionEvent;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Rng::Next() {
  uint64_t r = Mix64(state_);
  state_ += 0x9e3779b97f4a7c15ull;
  return r;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

int Rng::Between(int lo, int hi) {
  return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::Exponential(double mean) { return -mean * std::log1p(-Uniform()); }

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  double u = rng->Uniform();
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

namespace {

// Serves `body` for every URL under `prefix` (the per-user page URLs:
// each user's `?user=<n>` is a distinct remote fetch, so every page load
// pays one round trip however warm the shared response cache is).
void ServePage(PageServer* server, const std::string& prefix,
               std::string body) {
  server->backend().SetHandler(
      prefix, [body = std::move(body)](const HttpRequest&)
                  -> Result<HttpResponse> {
        return HttpResponse{200, body, "application/xhtml+xml"};
      });
}

std::string QueryValue(const std::string& url, const std::string& key) {
  size_t pos = url.find(key + "=");
  if (pos == std::string::npos) return std::string();
  size_t start = pos + key.size() + 1;
  size_t end = url.find('&', start);
  return url.substr(start, end == std::string::npos ? end : end - start);
}

// Element children of `node` (text and attributes skipped).
std::vector<const xqib::xml::Node*> ElementChildren(
    const xqib::xml::Node* node) {
  std::vector<const xqib::xml::Node*> out;
  for (const xqib::xml::Node* c : node->children()) {
    if (c->is_element()) out.push_back(c);
  }
  return out;
}

xqib::xml::Node* ById(Session* session, const std::string& id) {
  return session->browser().top_window()->document()->GetElementById(id);
}

std::string Mismatch(const std::string& what, const std::string& got,
                     const std::string& want) {
  return what + ": got '" + got + "', want '" + want + "'";
}

// A pronounceable lowercase name drawn from `rng`.
std::string MakeName(Rng* rng, const char* prefix) {
  static const char* kSyllables[] = {"ka", "lo", "mi", "ne", "ru", "sa",
                                     "to", "vi", "ba", "de", "fo", "gu",
                                     "ha", "ji", "pe", "zo"};
  std::string name = prefix;
  int parts = rng->Between(2, 3);
  for (int i = 0; i < parts; ++i) name += kSyllables[rng->Below(16)];
  return name;
}

// ---------------------------------------------------------------- cart

// The §6.3 XQuery-only shopping cart, plus two pure listeners: one reads
// the cart (each buy invalidates it), one reads only the catalog (a buy
// leaves it valid, so the delta-skip probe replays it).
class CartWorkload : public Workload {
 public:
  static constexpr int kProducts = 24;
  static constexpr double kThinkMs = 25;  // mean gap between a user's events
  static constexpr double kReadShare = 0.5;

  explicit CartWorkload(uint64_t seed) : seed_(seed), zipf_(kProducts, kZipfExponent) {
    Rng rng(Mix64(seed ^ 0xca27ull));
    for (int i = 0; i < kProducts; ++i) {
      ids_.push_back(MakeName(&rng, "sku") + std::to_string(i));
      prices_.push_back(rng.Between(1, 1999));
    }
    for (int p : prices_) catalog_total_ += p;
  }

  const char* name() const override { return "cart"; }

  Status Deploy(PageServer* server) const override {
    std::ostringstream products;
    products << "<products>";
    for (size_t i = 0; i < ids_.size(); ++i) {
      products << "<product><name>" << ids_[i] << "</name><price>"
               << prices_[i] << "</price></product>";
    }
    products << "</products>";
    server->backend().PutResource(kProductsUrl, products.str());
    ServePage(server, kPageUrl, PageSource());
    return Status();
  }

  UserScript MakeUser(uint64_t index) const override {
    Rng rng(Mix64(seed_ ^ Mix64(index + 1)));
    UserScript u;
    u.index = index;
    u.page_url = std::string(kPageUrl) + "?user=" + std::to_string(index);
    int n = rng.Between(12, 28);
    for (int i = 0; i < n; ++i) {
      SessionEvent ev;
      double r = rng.Uniform();
      if (r < kReadShare / 2) {
        ev.target_id = "show-cart";
      } else if (r < kReadShare) {
        ev.target_id = "show-catalog";
      } else {
        ev.target_id = ids_[zipf_.Draw(&rng)];
      }
      u.events.push_back(std::move(ev));
      u.think_ms.push_back(rng.Exponential(kThinkMs));
    }
    return u;
  }

  std::string CheckEvent(Session* session, const UserScript& script, size_t i,
                         UserModel* model) const override {
    const std::string& target = script.events[i].target_id;
    const std::string& result = session->plugin().last_listener_result();
    if (target == "show-cart") {
      std::string want = std::to_string(model->cart.size());
      return result == want ? "" : Mismatch("cart size", result, want);
    }
    if (target == "show-catalog") {
      std::string want = std::to_string(catalog_total_);
      return result == want ? "" : Mismatch("catalog total", result, want);
    }
    model->cart.insert(model->cart.begin(), target);
    return "";
  }

  std::string CheckFinal(Session* session, const UserScript&,
                         const UserModel& model) const override {
    const xqib::xml::Node* cart = ById(session, "shoppingcart");
    if (cart == nullptr) return "cart div missing";
    std::vector<const xqib::xml::Node*> items = ElementChildren(cart);
    if (items.size() != model.cart.size()) {
      return Mismatch("cart length", std::to_string(items.size()),
                      std::to_string(model.cart.size()));
    }
    for (size_t i = 0; i < items.size(); ++i) {
      std::string got = items[i]->StringValue();
      if (got != model.cart[i]) return Mismatch("cart item", got, model.cart[i]);
    }
    return "";
  }

 private:
  static constexpr const char* kProductsUrl =
      "http://shop.example.com/products.xml";
  static constexpr const char* kPageUrl = "http://shop.example.com/cart.xhtml";

  static std::string PageSource() {
    return R"(<html><head>
<title>Shopping cart (XQuery only, paper Section 6.3)</title>
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
<div>Shopping cart</div>
<p><input type="button" id="show-cart" value="Cart"/>
<input type="button" id="show-catalog" value="Catalog"/></p>
<div id="shoppingcart"/>
</body></html>)";
  }

  uint64_t seed_;
  Zipf zipf_;
  std::vector<std::string> ids_;
  std::vector<int> prices_;
  long catalog_total_ = 0;
};

// -------------------------------------------------------------- browse

// Figure 2's migrated Elsevier page: every session fetches the whole
// corpus into its own DOM and builds the table of contents; each click
// re-renders one article's reference statistics from the cached copy.
class BrowseWorkload : public Workload {
 public:
  static constexpr int kJournals = 2;
  static constexpr int kVolumes = 2;
  static constexpr int kIssues = 4;
  static constexpr int kArticlesPerIssue = 6;
  static constexpr double kThinkMs = 120;

  struct Article {
    std::string title;
    int refs = 0;
    std::vector<int> years;  // distinct, ascending
  };

  explicit BrowseWorkload(uint64_t seed) : seed_(seed) {
    static const char* kWords[] = {
        "query",  "stream", "index",   "cache",  "schema", "update",
        "mashup", "browser", "server", "plan",   "join",   "path",
        "tree",   "cursor", "ranking", "corpus", "federation", "view"};
    Rng rng(Mix64(seed ^ 0xe15e71e5ull));
    const int total = kJournals * kVolumes * kIssues * kArticlesPerIssue;
    // Popularity is Zipf over a seeded permutation of the articles, so
    // the hot set is spread over the corpus. The reference count is a
    // function of the popularity rank, so every seed's corpus has the
    // same size and every seed's clicks the same mix of work.
    popularity_.resize(static_cast<size_t>(total));
    for (size_t i = 0; i < popularity_.size(); ++i) popularity_[i] = i;
    for (size_t i = popularity_.size(); i > 1; --i) {
      std::swap(popularity_[i - 1], popularity_[rng.Below(i)]);
    }
    std::vector<int> ref_counts(static_cast<size_t>(total));
    for (size_t rank = 0; rank < popularity_.size(); ++rank) {
      ref_counts[popularity_[rank]] = 4 + static_cast<int>(rank % 21);
    }
    std::ostringstream out;
    out << "<corpus>";
    int id = 0;
    for (int j = 0; j < kJournals; ++j) {
      out << "<journal name=\"Journal " << j << "\">";
      for (int v = 0; v < kVolumes; ++v) {
        out << "<volume number=\"" << (v + 1) << "\">";
        for (int i = 0; i < kIssues; ++i) {
          out << "<issue number=\"" << (i + 1) << "\">";
          for (int a = 0; a < kArticlesPerIssue; ++a, ++id) {
            Article art;
            art.title = std::string("On ") + kWords[rng.Below(18)] + " " +
                        kWords[rng.Below(18)] + " " +
                        std::to_string(rng.Below(1000)) + " of journal " +
                        std::to_string(j);
            art.refs = ref_counts[id];
            out << "<article id=\"a-" << id << "\"><title>" << art.title
                << "</title><references>";
            for (int r = 0; r < art.refs; ++r) {
              int year = 1980 + static_cast<int>(rng.Below(28));
              art.years.push_back(year);
              out << "<ref year=\"" << year << "\" cites=\"a-"
                  << rng.Below(static_cast<uint64_t>(total)) << "\"/>";
            }
            std::sort(art.years.begin(), art.years.end());
            art.years.erase(std::unique(art.years.begin(), art.years.end()),
                            art.years.end());
            out << "</references></article>";
            articles_.push_back(std::move(art));
          }
          out << "</issue>";
        }
        out << "</volume>";
      }
      out << "</journal>";
    }
    out << "</corpus>";
    corpus_ = out.str();
    zipf_ = std::make_unique<Zipf>(articles_.size(), kZipfExponent);
  }

  const char* name() const override { return "browse"; }

  Status Deploy(PageServer* server) const override {
    XQ_RETURN_NOT_OK(server->store().Put("/corpus.xml", corpus_));
    XQ_RETURN_NOT_OK(xqib::app::elsevier::DeployServer(&server->store(),
                                                       &server->backend()));
    // The per-user page URLs serve the deployed client page.
    XQ_ASSIGN_OR_RETURN(HttpResponse page,
                        server->backend().Get(std::string(kPageUrl)));
    ServePage(server, std::string(kPageUrl) + "?", page.body);
    return Status();
  }

  UserScript MakeUser(uint64_t index) const override {
    Rng rng(Mix64(seed_ ^ Mix64(index + 1) ^ 0xb0ull));
    UserScript u;
    u.index = index;
    u.page_url = std::string(kPageUrl) + "?user=" + std::to_string(index);
    int n = rng.Between(6, 14);
    for (int i = 0; i < n; ++i) {
      SessionEvent ev;
      ev.target_id = "link-a-" + std::to_string(popularity_[zipf_->Draw(&rng)]);
      u.events.push_back(std::move(ev));
      u.think_ms.push_back(rng.Exponential(kThinkMs));
    }
    return u;
  }

  std::string CheckEvent(Session* session, const UserScript& script, size_t i,
                         UserModel*) const override {
    const Article& art =
        articles_[std::stoul(script.events[i].target_id.substr(7))];
    const xqib::xml::Node* title = ById(session, "title");
    const xqib::xml::Node* nrefs = ById(session, "nrefs");
    const xqib::xml::Node* years = ById(session, "years");
    if (title == nullptr || nrefs == nullptr || years == nullptr) {
      return "article view missing";
    }
    if (title->StringValue() != art.title) {
      return Mismatch("title", title->StringValue(), art.title);
    }
    if (nrefs->StringValue() != std::to_string(art.refs)) {
      return Mismatch("reference count", nrefs->StringValue(),
                      std::to_string(art.refs));
    }
    std::string got, want;
    for (const xqib::xml::Node* li : ElementChildren(years)) {
      got += li->StringValue() + " ";
    }
    for (int y : art.years) want += std::to_string(y) + " ";
    return got == want ? "" : Mismatch("years", got, want);
  }

  std::string CheckFinal(Session*, const UserScript&,
                         const UserModel&) const override {
    return "";  // every click's view was checked as it was rendered
  }

 private:
  static constexpr const char* kPageUrl =
      "http://elsevier.example.com/client.xhtml";

  uint64_t seed_;
  std::string corpus_;
  std::vector<Article> articles_;
  std::vector<size_t> popularity_;
  std::unique_ptr<Zipf> zipf_;
};

// -------------------------------------------------------------- mashup

// Figure 3's maps/weather mash-up: a MiniJS map listener and an XQuery
// listener fire on the same click; the XQuery listener fans out to
// kWeather + kCams remote sources for the searched city.
class MashupWorkload : public Workload {
 public:
  static constexpr int kCities = 400;
  static constexpr int kWeather = 6;
  static constexpr int kCams = 2;
  static constexpr double kThinkMs = 200;
  // The shared response cache's TTL, scaled like the think time: a
  // user's mean think time of 7 s (TPC-W's) is compressed to kThinkMs,
  // and the shipped 60 s TTL by the same factor (~1.7 s). With 60 s, no
  // entry would expire within a run and the expiry path would go
  // unmeasured. Only this workload fetches per event, so only it sets it.
  static constexpr double kResponseTtlMs = 60'000.0 * kThinkMs / 7'000.0;

  explicit MashupWorkload(uint64_t seed) : seed_(seed), zipf_(kCities, kZipfExponent) {
    Rng rng(Mix64(seed ^ 0x3a5bull));
    for (int i = 0; i < kCities; ++i) {
      cities_.push_back(MakeName(&rng, "") + "ville" + std::to_string(i));
    }
  }

  const char* name() const override { return "mashup"; }

  Status Deploy(PageServer* server) const override {
    xqib::net::HttpResponseCache::Global()->set_ttl_ms(kResponseTtlMs);
    for (int s = 0; s < kWeather; ++s) {
      server->backend().SetHandler(
          WeatherUrl(s), [this, s](const HttpRequest& request)
                             -> Result<HttpResponse> {
            return HttpResponse{
                200,
                "<weather><summary>" +
                    Summary(s, QueryValue(request.url, "q")) +
                    "</summary></weather>",
                "application/xml"};
          });
    }
    for (int c = 0; c < kCams; ++c) {
      server->backend().SetHandler(
          CamUrl(c), [this, c](const HttpRequest& request)
                         -> Result<HttpResponse> {
            std::string body = "<cams>";
            for (const std::string& url :
                 Cams(c, QueryValue(request.url, "q"))) {
              body += "<cam url=\"" + url + "\"/>";
            }
            return HttpResponse{200, body + "</cams>", "application/xml"};
          });
    }
    ServePage(server, kPageUrl, PageSource());
    return Status();
  }

  UserScript MakeUser(uint64_t index) const override {
    Rng rng(Mix64(seed_ ^ Mix64(index + 1) ^ 0x3aull));
    UserScript u;
    u.index = index;
    u.page_url = std::string(kPageUrl) + "?user=" + std::to_string(index);
    int n = rng.Between(3, 9);
    for (int i = 0; i < n; ++i) {
      SessionEvent ev;
      ev.target_id = "searchbtn";
      ev.value = cities_[zipf_.Draw(&rng)];
      u.events.push_back(std::move(ev));
      u.think_ms.push_back(rng.Exponential(kThinkMs));
    }
    return u;
  }

  std::string CheckEvent(Session* session, const UserScript& script, size_t i,
                         UserModel*) const override {
    const std::string& city = script.events[i].value;
    const xqib::xml::Node* map = ById(session, "map");
    const xqib::xml::Node* weather = ById(session, "weather");
    const xqib::xml::Node* cams = ById(session, "webcams");
    if (map == nullptr || weather == nullptr || cams == nullptr) {
      return "mash-up view missing";
    }
    if (map->StringValue() != "Map of " + city) {
      return Mismatch("map", map->StringValue(), "Map of " + city);
    }
    std::string got, want;
    for (const xqib::xml::Node* block : ElementChildren(weather)) {
      for (const xqib::xml::Node* p : ElementChildren(block)) {
        got += p->StringValue() + "|";
      }
    }
    for (int s = 0; s < kWeather; ++s) want += Summary(s, city) + "|";
    if (got != want) return Mismatch("weather", got, want);
    got.clear();
    want.clear();
    for (const xqib::xml::Node* list : ElementChildren(cams)) {
      for (const xqib::xml::Node* li : ElementChildren(list)) {
        got += li->StringValue() + "|";
      }
    }
    for (int c = 0; c < kCams; ++c) {
      for (const std::string& url : Cams(c, city)) want += url + "|";
    }
    return got == want ? "" : Mismatch("webcams", got, want);
  }

  std::string CheckFinal(Session*, const UserScript&,
                         const UserModel&) const override {
    return "";
  }

 private:
  static constexpr const char* kPageUrl =
      "http://maps.example.com/mashup.xhtml";

  static std::string WeatherUrl(int s) {
    return "http://weather" + std::to_string(s) + ".example.com/api";
  }
  static std::string CamUrl(int c) {
    return "http://cams" + std::to_string(c) + ".example.com/api";
  }

  std::string Summary(int source, const std::string& city) const {
    static const char* kSky[] = {"sunny", "cloudy", "rain", "snow", "fog"};
    uint64_t h = Mix64(seed_ ^ HashString(city) ^ (0x100u + source));
    return "svc " + std::to_string(source) + ": " + kSky[h % 5] + " " +
           std::to_string(static_cast<int>((h >> 8) % 40) - 5) + "C in " +
           city;
  }

  std::vector<std::string> Cams(int provider, const std::string& city) const {
    uint64_t h = Mix64(seed_ ^ HashString(city) ^ (0x200u + provider));
    std::vector<std::string> urls;
    for (uint64_t i = 0; i < 1 + h % 3; ++i) {
      urls.push_back("http://cams" + std::to_string(provider) +
                     ".example.com/" + city + "/" + std::to_string(i) +
                     ".jpg");
    }
    return urls;
  }

  static std::string PageSource() {
    // One FLWOR over all kWeather + kCams source URLs: its binding is
    // built-in calls only, so the evaluator scatters the whole batch
    // into one in-flight window before the tuple loop runs.
    std::ostringstream urls;
    for (int s = 0; s < kWeather + kCams; ++s) {
      urls << (s > 0 ? ",\n        " : "") << "concat(\""
           << (s < kWeather ? WeatherUrl(s) : CamUrl(s - kWeather))
           << "?q=\", $q)";
    }
    return R"(<html><head>
<title>Maps + Weather mash-up (paper Section 6.2)</title>
<script type="text/javascript"><![CDATA[
function showMap(e) {
  var map = document.getElementById('map');
  map.textContent = 'Map of ' + e.value;
}
function installMap() {
  document.getElementById('searchbtn')
      .addEventListener('onclick', showMap, false);
}
installMap();
]]></script>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onSearch($evt, $obj) {
  let $q := string($evt/value)
  let $replies :=
    for $u in ()" + urls.str() + R"()
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
<h2>Map</h2><div id="map"/>
<h2>Weather</h2><div id="weather"/>
<h2>Webcams</h2><div id="webcams"/>
</body></html>)";
  }

  uint64_t seed_;
  Zipf zipf_;
  std::vector<std::string> cities_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "cart") return std::make_unique<CartWorkload>(seed);
  if (name == "browse") return std::make_unique<BrowseWorkload>(seed);
  if (name == "mashup") return std::make_unique<MashupWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
