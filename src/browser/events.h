// DOM Level 3 events (paper §4.1/§4.3): listener registry per (node,
// event type) and capture → target → bubble dispatch. Listeners from
// different script engines (XQuery, MiniJS, native C++) coexist on one
// target and are serialized in registration order — the behaviour the
// paper's mash-up (§6.2) relies on.

#ifndef XQIB_BROWSER_EVENTS_H_
#define XQIB_BROWSER_EVENTS_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "xml/dom.h"

namespace xqib::browser {

// A dispatched event instance (the "$evt" the paper passes to XQuery
// listeners and the Event object JavaScript sees).
struct Event {
  std::string type;           // "onclick", "onkeyup", "stateChanged", ...
  xml::Node* target = nullptr;
  xml::Node* current_target = nullptr;
  enum class Phase { kCapture, kTarget, kBubble };
  Phase phase = Phase::kTarget;
  bool bubbles = true;
  bool cancelable = true;

  // UI-event payload (subset of the DOM Event object, paper §4.3.2).
  bool alt_key = false;
  bool ctrl_key = false;
  bool shift_key = false;
  int button = 0;
  std::string value;  // e.g. text-box content for key events

  // Listener-controlled flags.
  bool stop_propagation = false;
  bool default_prevented = false;
};

// One registered listener. `id` identifies it for removal: engines use
// "<engine>:<function-name>" so detaching by name works across calls.
struct Listener {
  std::string id;
  bool capture = false;
  std::function<void(Event&)> callback;
};

class EventSystem {
 public:
  // Adds a listener; duplicate (target, type, id, capture) registrations
  // are ignored, mirroring DOM addEventListener semantics.
  void AddListener(xml::Node* target, const std::string& type,
                   Listener listener);

  // Removes the listener with the given id (both capture and bubble).
  void RemoveListener(xml::Node* target, const std::string& type,
                      const std::string& id);

  // Synchronous DOM dispatch along capture → target → bubble: every
  // listener runs on the calling thread, one at a time, in registration
  // order. Returns the number of listener invocations.
  size_t Dispatch(xml::Node* target, Event event);

  // Total listeners registered (diagnostics).
  size_t listener_count() const;

  // Drops all listeners registered on nodes of `doc` (page unload).
  void ClearDocument(const xml::Document* doc);

 private:
  struct Key {
    const xml::Node* node;
    std::string type;
    bool operator==(const Key& other) const {
      return node == other.node && type == other.type;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.node) ^
             (std::hash<std::string>()(k.type) * 1315423911u);
    }
  };
  std::unordered_map<Key, std::vector<Listener>, KeyHash> listeners_;
};

}  // namespace xqib::browser

#endif  // XQIB_BROWSER_EVENTS_H_
