#include "browser/events.h"

#include <algorithm>

namespace xqib::browser {

void EventSystem::AddListener(xml::Node* target, const std::string& type,
                              Listener listener) {
  auto& vec = listeners_[Key{target, type}];
  for (const Listener& l : vec) {
    if (l.id == listener.id && l.capture == listener.capture) return;
  }
  vec.push_back(std::move(listener));
}

void EventSystem::RemoveListener(xml::Node* target, const std::string& type,
                                 const std::string& id) {
  auto it = listeners_.find(Key{target, type});
  if (it == listeners_.end()) return;
  auto& vec = it->second;
  vec.erase(std::remove_if(vec.begin(), vec.end(),
                           [&](const Listener& l) { return l.id == id; }),
            vec.end());
  if (vec.empty()) listeners_.erase(it);
}

size_t EventSystem::Dispatch(xml::Node* target, Event event) {
  event.target = target;

  // Build the propagation path: ancestors from the root down to target.
  std::vector<xml::Node*> path;
  for (xml::Node* n = target->parent(); n != nullptr; n = n->parent()) {
    path.push_back(n);
  }
  std::reverse(path.begin(), path.end());

  size_t invocations = 0;
  auto run_phase = [&](xml::Node* node, Event::Phase phase) {
    if (event.stop_propagation) return;
    auto it = listeners_.find(Key{node, event.type});
    if (it == listeners_.end()) return;
    // Copy: listeners may mutate the registry while running.
    std::vector<Listener> snapshot = it->second;
    bool want_capture = phase == Event::Phase::kCapture;
    for (const Listener& l : snapshot) {
      if (phase != Event::Phase::kTarget && l.capture != want_capture) {
        continue;
      }
      event.current_target = node;
      event.phase = phase;
      l.callback(event);
      ++invocations;
      if (event.stop_propagation) break;
    }
  };

  for (xml::Node* n : path) run_phase(n, Event::Phase::kCapture);
  run_phase(target, Event::Phase::kTarget);
  if (event.bubbles) {
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      run_phase(*it, Event::Phase::kBubble);
    }
  }
  return invocations;
}

size_t EventSystem::listener_count() const {
  size_t n = 0;
  for (const auto& [key, vec] : listeners_) n += vec.size();
  return n;
}

void EventSystem::ClearDocument(const xml::Document* doc) {
  for (auto it = listeners_.begin(); it != listeners_.end();) {
    if (it->first.node->document() == doc) {
      it = listeners_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace xqib::browser
